package metrics

import (
	"bytes"
	"sort"

	"give2get/internal/g2gcrypto"
	"give2get/internal/sim"
	"give2get/internal/trace"
)

// Journal support: the collector's maps flattened into sorted slices so a
// sweep journal entry encodes them deterministically (same run state → same
// bytes) and a restored result rebuilds the collector exactly.

// GenEntry is one generated message in a CollectorState.
type GenEntry struct {
	Hash     g2gcrypto.Digest
	Src, Dst trace.NodeID
	At       sim.Time
}

// DigestTime pairs a message digest with an instant.
type DigestTime struct {
	Hash g2gcrypto.Digest
	At   sim.Time
}

// DigestCount pairs a message digest with a counter.
type DigestCount struct {
	Hash g2gcrypto.Digest
	N    int
}

// CollectorState is the serializable full state of a Collector.
type CollectorState struct {
	Generated          []GenEntry
	Delivered          []DigestTime
	Replicas           []DigestCount
	ReplicasAtDelivery []DigestCount
	Sealed             []g2gcrypto.Digest
	Detections         []Detection
	TestsRun           int
	TestsFail          int
}

// State captures the collector, with every map flattened in digest order.
func (c *Collector) State() CollectorState {
	c.mu.Lock()
	defer c.mu.Unlock()

	st := CollectorState{TestsRun: c.testsRun, TestsFail: c.testsFail}
	for h, rec := range c.generated {
		st.Generated = append(st.Generated, GenEntry{Hash: h, Src: rec.src, Dst: rec.dst, At: rec.at})
	}
	sort.Slice(st.Generated, func(i, j int) bool {
		return bytes.Compare(st.Generated[i].Hash[:], st.Generated[j].Hash[:]) < 0
	})
	for h, at := range c.delivered {
		st.Delivered = append(st.Delivered, DigestTime{Hash: h, At: at})
	}
	sort.Slice(st.Delivered, func(i, j int) bool {
		return bytes.Compare(st.Delivered[i].Hash[:], st.Delivered[j].Hash[:]) < 0
	})
	st.Replicas = sortedCounts(c.replicas)
	st.ReplicasAtDelivery = sortedCounts(c.replicasAtDelivery)
	for h, sealed := range c.sealed {
		if sealed {
			st.Sealed = append(st.Sealed, h)
		}
	}
	sort.Slice(st.Sealed, func(i, j int) bool {
		return bytes.Compare(st.Sealed[i][:], st.Sealed[j][:]) < 0
	})
	for _, d := range c.detections {
		st.Detections = append(st.Detections, d)
	}
	sort.Slice(st.Detections, func(i, j int) bool {
		return st.Detections[i].Accused < st.Detections[j].Accused
	})
	return st
}

func sortedCounts(m map[g2gcrypto.Digest]int) []DigestCount {
	out := make([]DigestCount, 0, len(m))
	for h, n := range m {
		out = append(out, DigestCount{Hash: h, N: n})
	}
	sort.Slice(out, func(i, j int) bool {
		return bytes.Compare(out[i].Hash[:], out[j].Hash[:]) < 0
	})
	return out
}

// Restore rebuilds the collector from a captured state, replacing whatever
// it currently holds.
func (c *Collector) Restore(st CollectorState) {
	c.mu.Lock()
	defer c.mu.Unlock()

	c.generated = make(map[g2gcrypto.Digest]genRecord, len(st.Generated))
	for _, g := range st.Generated {
		c.generated[g.Hash] = genRecord{src: g.Src, dst: g.Dst, at: g.At}
	}
	c.delivered = make(map[g2gcrypto.Digest]sim.Time, len(st.Delivered))
	for _, d := range st.Delivered {
		c.delivered[d.Hash] = d.At
	}
	c.replicas = make(map[g2gcrypto.Digest]int, len(st.Replicas))
	for _, r := range st.Replicas {
		c.replicas[r.Hash] = r.N
	}
	c.replicasAtDelivery = make(map[g2gcrypto.Digest]int, len(st.ReplicasAtDelivery))
	for _, r := range st.ReplicasAtDelivery {
		c.replicasAtDelivery[r.Hash] = r.N
	}
	c.sealed = make(map[g2gcrypto.Digest]bool, len(st.Sealed))
	for _, h := range st.Sealed {
		c.sealed[h] = true
	}
	c.detections = make(map[trace.NodeID]Detection, len(st.Detections))
	for _, d := range st.Detections {
		c.detections[d.Accused] = d
	}
	c.testsRun = st.TestsRun
	c.testsFail = st.TestsFail
}
