package invariant

import (
	"reflect"
	"testing"

	"give2get/internal/message"
	"give2get/internal/protocol"
	"give2get/internal/sim"
	"give2get/internal/trace"
	"give2get/internal/wire"
)

// TestAuditorStateRoundTrip captures an auditor mid-instant, with records
// of the current instant not yet folded into the digest, restores it into a
// fresh auditor, and requires (a) a re-capture identical to the snapshot
// and (b) the same report as the uninterrupted auditor after a common
// suffix, digest included.
func TestAuditorStateRoundTrip(t *testing.T) {
	cfg := func(c *Config) {
		c.Deviants = []trace.NodeID{3}
		c.Deviation = protocol.Dropper
		c.G2G = true
		c.Label = "unit/state"
	}
	at := d1 + sim.Minute
	prefix := func(a *Auditor) {
		a.Generated(h(1), message.MakeID(1, 1), 1, 2, 0)
		a.Generated(h(2), message.MakeID(4, 1), 4, 5, 0)
		a.Generated(h(3), message.MakeID(5, 1), 5, 7, 5*sim.Minute)
		a.Replicated(h(1), 1, 3, sim.Minute)
		a.RelayProven(porFor(t, a.cfg.Sys, h(1), 1, 3, sim.Minute), sim.Minute)
		a.Replicated(h(2), 4, 6, 2*sim.Minute)
		a.RelayProven(porFor(t, a.cfg.Sys, h(2), 4, 6, 2*sim.Minute), 2*sim.Minute)
		a.Replicated(h(2), 4, 6, 3*sim.Minute) // a duplicate handoff: a violation
		a.Delivered(h(2), 4*sim.Minute)
		a.Tested(3, false, at) // a failure awaiting its detection
	}
	suffix := func(a *Auditor) {
		a.Detected(3, wire.ReasonDropped, h(1), at, d1)
		a.MisbehaviorReported(pomFor(t, a.cfg.Sys, 3, 1, h(1), at), at)
		a.Tested(6, true, at+sim.Minute)
		a.Delivered(h(3), at+2*sim.Minute)
	}

	ref := newTestAuditor(t, cfg)
	prefix(ref)
	st, err := ref.State()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Pending) == 0 || len(st.PendingFailures) != 1 || len(st.Msgs) != 3 ||
		len(st.ReplicatedBy) != 2 || len(st.ProvenBy) != 2 || len(st.Violations) != 1 || len(st.Deliveries) != 1 {
		t.Fatalf("snapshot does not cover the script: %+v", st)
	}

	got := newTestAuditor(t, cfg)
	if err := got.Restore(st); err != nil {
		t.Fatal(err)
	}
	if again, err := got.State(); err != nil || !reflect.DeepEqual(again, st) {
		t.Fatalf("re-captured state differs (err %v):\n got %+v\nwant %+v", err, again, st)
	}

	suffix(ref)
	suffix(got)
	want := finalizeClean(ref)
	rep := finalizeClean(got)
	if !reflect.DeepEqual(rep, want) {
		t.Errorf("restored report differs:\n got %+v\nwant %+v", rep, want)
	}
	// The duplicate handoff is reported online before the snapshot, and
	// again at finalization from the restored handoff counters, as an
	// unproven handoff and an accounting mismatch.
	if len(rep.Detections) != 1 || rep.TotalViolations != 3 || rep.Violations[0].Rule != RuleDuplicateHandoff {
		t.Errorf("report lacks the scripted detection or violations: %+v", rep)
	}

	// A snapshot whose hasher state does not decode is refused.
	st.Hasher = []byte("not a sha256 state")
	if err := newTestAuditor(t, cfg).Restore(st); err == nil {
		t.Error("restore accepted a corrupt hasher state")
	}
}
