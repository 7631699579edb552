package invariant

import (
	"encoding/hex"
	"fmt"
	"sort"

	"give2get/internal/obs"
	"give2get/internal/sim"
	"give2get/internal/trace"
)

// Violation is one invariant breach with its structured context.
type Violation struct {
	// Rule names the broken invariant (one of the Rule* constants).
	Rule string `json:"rule"`
	// Label echoes the run label the auditor was configured with.
	Label string `json:"label,omitempty"`
	// Detail is the human-readable specifics.
	Detail string `json:"detail"`
	// Msg is the short H(m) digest of the involved message, when known.
	Msg string `json:"msg,omitempty"`
	// MsgID is the end-to-end message id, when known (0 otherwise).
	MsgID uint64 `json:"msg_id,omitempty"`
	// At is the virtual instant of the offending event.
	At sim.Time `json:"at"`
	// Timeline is the message's trailing event excerpt, oldest first.
	Timeline []string `json:"timeline,omitempty"`
}

// String renders the violation as one line (the timeline excerpt excluded).
func (v Violation) String() string {
	s := v.Rule
	if v.Label != "" {
		s = v.Label + ": " + s
	}
	s += " at " + v.At.String() + ": " + v.Detail
	if v.Msg != "" {
		s += fmt.Sprintf(" (msg %s/#%d)", v.Msg, v.MsgID)
	}
	return s
}

// Detection is one Detected event as the auditor saw it, keyed by message id
// so detection verdicts compare across crypto providers.
type Detection struct {
	Accused trace.NodeID `json:"accused"`
	Reason  string       `json:"reason"`
	MsgID   uint64       `json:"msg_id"`
	At      sim.Time     `json:"at"`
}

// Report is the frozen outcome of one audited run.
type Report struct {
	// Label echoes the run label.
	Label string `json:"label,omitempty"`
	// Events is how many observer events the auditor folded into Digest.
	Events int64 `json:"events"`
	// Digest is the hex SHA-256 of the canonical, message-id-keyed event
	// stream. Identical configurations produce identical digests at any
	// scheduler job count.
	Digest string `json:"digest"`

	Generated   int `json:"generated"`
	Delivered   int `json:"delivered"`
	Replicated  int `json:"replicated"`
	TestsRun    int `json:"tests_run"`
	TestsFailed int `json:"tests_failed"`

	// Deliveries lists the delivered message ids, sorted: the delivery set
	// the differential-crypto harness compares.
	Deliveries []uint64 `json:"deliveries,omitempty"`
	// Detections lists every Detected event in event order.
	Detections []Detection `json:"detections,omitempty"`

	// Violations holds the retained breaches, the first 100 of them;
	// TotalViolations counts all of them, overflow included.
	Violations      []Violation `json:"violations,omitempty"`
	TotalViolations int         `json:"total_violations"`
}

// Ok reports whether the run passed the audit.
func (r *Report) Ok() bool { return r != nil && r.TotalViolations == 0 }

// Err returns nil for a clean report and an error naming the first violation
// otherwise — the hook StrictAudit callers use to fail a run.
func (r *Report) Err() error {
	if r.Ok() {
		return nil
	}
	return fmt.Errorf("invariant: %d violation(s), first: %s", r.TotalViolations, r.Violations[0])
}

// String renders the one-line summary the CLIs print.
func (r *Report) String() string {
	if r == nil {
		return "audit: not run"
	}
	if r.Ok() {
		return fmt.Sprintf("audit: ok (%d events, %d detections, digest=%s)",
			r.Events, len(r.Detections), r.Digest[:16])
	}
	return fmt.Sprintf("audit: FAILED (%d violations over %d events, first: %s)",
		r.TotalViolations, r.Events, r.Violations[0])
}

// Finalization carries the engine's end-of-run aggregates into the
// reconciliation pass. Everything is plain data so the auditor stays
// decoupled from the engine's result types.
type Finalization struct {
	// SummaryGenerated..SummaryTestsFailed are the metrics collector's view
	// of the run (metrics.Summary).
	SummaryGenerated   int
	SummaryDelivered   int
	SummaryReplicas    int
	SummaryTestsRun    int
	SummaryTestsFailed int
	// Telemetry is the run's frozen counter registry; nil skips that
	// reconciliation (as does Config.SharedTelemetry).
	Telemetry *obs.Snapshot
	// UsageSignatures, UsageControlMessages, and UsageHeavyIterations are
	// the per-node usage meters summed over the population.
	UsageSignatures      int64
	UsageControlMessages int64
	UsageHeavyIterations int64
	// Blacklisted answers whether holder refuses sessions with accused at
	// the end of the run; nil skips blacklist reconciliation.
	Blacklisted func(holder, accused trace.NodeID) bool
	// EndedAt is the virtual instant the run settled.
	EndedAt sim.Time
}

// reconcile records a violation when two accountings of the same quantity
// disagree.
func (a *Auditor) reconcile(what string, shadow, engine int64) {
	if shadow == engine {
		return
	}
	a.violate(RuleAccountingMismatch, nil, [32]byte{}, 0,
		"%s: shadow model says %d, engine says %d", what, shadow, engine)
}

// Finalize runs the end-of-run checks and freezes the report. Call it
// exactly once, after the simulation settled.
func (a *Auditor) Finalize(fin Finalization) *Report {
	a.mu.Lock()
	defer a.mu.Unlock()

	// The collector and the engine telemetry heard the same events the
	// shadow model did; any drift means an aggregation bug.
	a.reconcile("generated (summary)", int64(a.generated), int64(fin.SummaryGenerated))
	a.reconcile("delivered (summary)", int64(a.delivered), int64(fin.SummaryDelivered))
	a.reconcile("replicas (summary)", int64(a.replicated), int64(fin.SummaryReplicas))
	a.reconcile("tests run (summary)", int64(a.testsRun), int64(fin.SummaryTestsRun))
	a.reconcile("tests failed (summary)", int64(a.testsFail), int64(fin.SummaryTestsFailed))

	if tel := fin.Telemetry; tel != nil && !a.cfg.SharedTelemetry {
		a.reconcile("generated (telemetry)", int64(a.generated), tel.Engine.MessagesGenerated)
		a.reconcile("relayed (telemetry)", int64(a.replicated), tel.Engine.MessagesRelayed)
		a.reconcile("delivered (telemetry)", int64(a.delivered), tel.Engine.MessagesDelivered)
		a.reconcile("PoM broadcasts (telemetry)", int64(len(a.detections)), tel.Engine.PoMBroadcasts)
		a.reconcile("tests started (telemetry)", int64(a.testsRun), tel.Protocol.TestsStarted)
		a.reconcile("tests passed (telemetry)", int64(a.testsRun-a.testsFail), tel.Protocol.TestsPassed)
		a.reconcile("tests failed (telemetry)", int64(a.testsFail), tel.Protocol.TestsFailed)
		a.reconcile("heavy-HMAC iterations (usage vs telemetry)",
			fin.UsageHeavyIterations, tel.Crypto.HeavyHMACIterations)
		// Every signed wire message costs its signer one signature and one
		// control message, so the three ledgers must agree.
		var wireTotal int64
		for _, w := range tel.Protocol.Wire {
			wireTotal += w.Count
		}
		a.reconcile("signatures (usage vs wire telemetry)", fin.UsageSignatures, wireTotal)
		a.reconcile("control messages (usage vs wire telemetry)", fin.UsageControlMessages, wireTotal)
	}

	// Every failed test must have produced a detection of the failing relay
	// at the failing instant.
	for _, p := range a.pendingFailures {
		a.violate(RuleUndetectedFailure, nil, [32]byte{}, p.at,
			"node %d failed a test but was never detected", p.accused)
	}

	// PoR completeness: in a G2G run every observed handoff is backed by
	// exactly the proofs of relay the protocol validated. (The converse —
	// proofs exceeding handoffs — is checked online in RelayProven.)
	if a.cfg.G2G {
		a.reconcile("PoR-backed handoffs", int64(sumCounts(a.provenBy)), int64(a.replicated))
		for k, n := range a.replicatedBy {
			if a.provenBy[k] < n {
				a.violate(RuleMissingPoR, a.msgs[k.hash], k.hash, fin.EndedAt,
					"handoff %d→%d replicated %d times but proven %d times",
					k.from, k.to, n, a.provenBy[k])
			}
		}
		a.checkPoMBacked()
		a.reconcile("PoM broadcasts (observer)", int64(a.pomReported), int64(len(a.detections)))
	}

	// Blacklist monotonicity/eviction: a detected node ends the run
	// blacklisted by everyone else (blacklists only grow, so checking the
	// final state covers the whole run).
	if fin.Blacklisted != nil {
		seen := make(map[trace.NodeID]struct{}, len(a.detections))
		for _, det := range a.detections {
			if _, done := seen[det.Accused]; done {
				continue
			}
			seen[det.Accused] = struct{}{}
			for n := 0; n < a.cfg.Population; n++ {
				holder := trace.NodeID(n)
				if holder == det.Accused {
					continue
				}
				if !fin.Blacklisted(holder, det.Accused) {
					a.violate(RuleMissingBlacklist, nil, [32]byte{}, fin.EndedAt,
						"node %d never blacklisted detected deviant %d", holder, det.Accused)
				}
			}
		}
	}

	a.flushDigest()
	rep := &Report{
		Label:           a.cfg.Label,
		Events:          a.events,
		Digest:          hex.EncodeToString(a.hasher.Sum(nil)),
		Generated:       a.generated,
		Delivered:       a.delivered,
		Replicated:      a.replicated,
		TestsRun:        a.testsRun,
		TestsFailed:     a.testsFail,
		Detections:      append([]Detection(nil), a.detections...),
		Violations:      append([]Violation(nil), a.violations...),
		TotalViolations: a.violationsAll,
	}
	rep.Deliveries = make([]uint64, len(a.deliveries))
	for i, id := range a.deliveries {
		rep.Deliveries[i] = uint64(id)
	}
	sort.Slice(rep.Deliveries, func(i, j int) bool { return rep.Deliveries[i] < rep.Deliveries[j] })
	return rep
}

func sumCounts(m map[handoff]int) int {
	total := 0
	for _, n := range m {
		total += n
	}
	return total
}
