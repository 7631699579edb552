// Package metrics aggregates protocol events into the measures the paper
// reports: success rate, delay, cost (replicas per message), and misbehavior
// detection rate and time.
package metrics

import (
	"sort"
	"sync"

	"give2get/internal/g2gcrypto"
	"give2get/internal/message"
	"give2get/internal/protocol"
	"give2get/internal/sim"
	"give2get/internal/trace"
	"give2get/internal/wire"
)

// Collector implements protocol.Observer. It is safe for concurrent use,
// although the simulator is single-threaded.
type Collector struct {
	mu sync.Mutex

	// msgs holds one record per message, so each lifecycle event costs one
	// map lookup.
	msgs       map[g2gcrypto.Digest]*msgRecord
	detections map[trace.NodeID]Detection
	testsRun   int
	testsFail  int
}

// msgRecord is one message's lifecycle as the collector saw it.
type msgRecord struct {
	src, dst    trace.NodeID
	genAt       sim.Time
	deliveredAt sim.Time
	replicas    int
	// replicasAtDelivery snapshots how many replicas existed when the
	// destination first got the message. sealed marks the snapshot as final:
	// the protocols report Delivered before the Replicated event of the
	// delivering handoff itself, so the snapshot is amended exactly once
	// when that same-instant replica arrives, then frozen against later
	// replication and duplicate deliveries.
	replicasAtDelivery           int
	generated, delivered, sealed bool
}

// Detection records the first time a node was exposed by a valid proof of
// misbehavior.
type Detection struct {
	Accused trace.NodeID
	Reason  wire.MisbehaviorReason
	At      sim.Time
	// TTLExpiry is generation + Δ1 for the exposing message; the paper
	// reports detection time as At - TTLExpiry.
	TTLExpiry sim.Time
}

// AfterTTL returns the paper's detection-time metric, clamped at zero for
// detections that complete before the TTL expires (possible for liars,
// which the destination audits at delivery time).
func (d Detection) AfterTTL() sim.Time {
	if d.At <= d.TTLExpiry {
		return 0
	}
	return d.At - d.TTLExpiry
}

var _ protocol.Observer = (*Collector)(nil)

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{
		msgs:       make(map[g2gcrypto.Digest]*msgRecord),
		detections: make(map[trace.NodeID]Detection),
	}
}

// record returns h's record, creating it on h's first event.
func (c *Collector) record(h g2gcrypto.Digest) *msgRecord {
	r := c.msgs[h]
	if r == nil {
		r = new(msgRecord)
		c.msgs[h] = r
	}
	return r
}

// Generated implements protocol.Observer.
func (c *Collector) Generated(h g2gcrypto.Digest, _ message.ID, src, dst trace.NodeID, at sim.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.record(h)
	r.src, r.dst, r.genAt, r.generated = src, dst, at, true
}

// Replicated implements protocol.Observer.
func (c *Collector) Replicated(h g2gcrypto.Digest, _, to trace.NodeID, at sim.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.record(h)
	r.replicas++
	// The protocols fire Delivered before the Replicated event of the very
	// handoff that delivered, so that replica is missing from the snapshot
	// taken in Delivered. Fold it in — exactly once — when it arrives: same
	// instant, addressed to the destination, snapshot not yet sealed.
	if r.delivered && !r.sealed && r.deliveredAt == at && r.generated && to == r.dst {
		r.replicasAtDelivery++
		r.sealed = true
	}
}

// Delivered implements protocol.Observer. Only the first delivery snapshots
// replicasAtDelivery; duplicates (possible when several custodians meet the
// destination at the same contact) are ignored.
func (c *Collector) Delivered(h g2gcrypto.Digest, at sim.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r := c.record(h); !r.delivered {
		r.delivered, r.deliveredAt = true, at
		r.replicasAtDelivery = r.replicas
	}
}

// Detected implements protocol.Observer. Only the first detection of each
// node counts.
func (c *Collector) Detected(accused trace.NodeID, reason wire.MisbehaviorReason, _ g2gcrypto.Digest, at, ttlExpiry sim.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.detections[accused]; !ok {
		c.detections[accused] = Detection{Accused: accused, Reason: reason, At: at, TTLExpiry: ttlExpiry}
	}
}

// Tested implements protocol.Observer.
func (c *Collector) Tested(_ trace.NodeID, passed bool, _ sim.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.testsRun++
	if !passed {
		c.testsFail++
	}
}

// Summary condenses a run.
type Summary struct {
	Generated   int
	Delivered   int
	SuccessRate float64 // percent
	MeanDelay   sim.Time
	// MeanCost is the average number of replicas created per generated
	// message over the message's whole lifetime.
	MeanCost float64
	// MeanCostToDelivery is the average number of replicas that existed
	// when the destination first received the message, over delivered
	// messages. This matches the cost axis of the paper's Fig. 8: replicas
	// of the same message in the network (measured when the message
	// reaches its destination).
	MeanCostToDelivery float64
	TotalReplicas      int
	TestsRun           int
	TestsFailed        int
}

// Summarize computes the delivery/cost summary of the run.
func (c *Collector) Summarize() Summary {
	c.mu.Lock()
	defer c.mu.Unlock()

	s := Summary{TestsRun: c.testsRun, TestsFailed: c.testsFail}
	var delay sim.Time
	var delays, atDelivery int
	for _, r := range c.msgs {
		s.TotalReplicas += r.replicas
		if r.generated {
			s.Generated++
		}
		if !r.delivered {
			continue
		}
		s.Delivered++
		atDelivery += r.replicasAtDelivery
		if r.generated {
			delay += r.deliveredAt - r.genAt
			delays++
		}
	}
	if delays > 0 {
		s.MeanDelay = delay / sim.Time(delays)
	}
	if s.Generated > 0 {
		s.SuccessRate = 100 * float64(s.Delivered) / float64(s.Generated)
		s.MeanCost = float64(s.TotalReplicas) / float64(s.Generated)
	}
	if s.Delivered > 0 {
		s.MeanCostToDelivery = float64(atDelivery) / float64(s.Delivered)
	}
	return s
}

// DetectionSummary reports how well a run exposed a set of deviating nodes.
type DetectionSummary struct {
	Deviants int
	Detected int
	// Rate is the percentage of deviants exposed by at least one PoM.
	Rate float64
	// MeanTimeAfterTTL averages the paper's detection-time metric over the
	// detected deviants.
	MeanTimeAfterTTL sim.Time
	// FalseAccusations counts detections of nodes outside the deviant set;
	// the protocols guarantee zero.
	FalseAccusations int
}

// SummarizeDetection scores the run's detections against the ground-truth
// deviant set.
func (c *Collector) SummarizeDetection(deviants []trace.NodeID) DetectionSummary {
	c.mu.Lock()
	defer c.mu.Unlock()

	isDeviant := make(map[trace.NodeID]struct{}, len(deviants))
	for _, d := range deviants {
		isDeviant[d] = struct{}{}
	}
	s := DetectionSummary{Deviants: len(deviants)}
	var total sim.Time
	for accused, det := range c.detections {
		if _, ok := isDeviant[accused]; !ok {
			s.FalseAccusations++
			continue
		}
		s.Detected++
		total += det.AfterTTL()
	}
	if s.Detected > 0 {
		s.MeanTimeAfterTTL = total / sim.Time(s.Detected)
	}
	if s.Deviants > 0 {
		s.Rate = 100 * float64(s.Detected) / float64(s.Deviants)
	}
	return s
}

// SourceStats summarizes one node's traffic as a message source: the basis
// of the payoff experiment (a node's utility comes from its own messages
// being delivered).
type SourceStats struct {
	Generated int
	Delivered int
}

// Sources returns, for each of a population of nodes (indexed by node id),
// how many of its own messages were generated and delivered.
func (c *Collector) Sources(nodes int) []SourceStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]SourceStats, nodes)
	for _, r := range c.msgs {
		if !r.generated {
			continue
		}
		out[r.src].Generated++
		if r.delivered {
			out[r.src].Delivered++
		}
	}
	return out
}

// Detections returns the recorded first detections, sorted by accused id.
func (c *Collector) Detections() []Detection {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Detection, 0, len(c.detections))
	for _, d := range c.detections {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Accused < out[j].Accused })
	return out
}
