package metrics

import (
	"reflect"
	"testing"

	"give2get/internal/sim"
	"give2get/internal/trace"
	"give2get/internal/wire"
)

// TestCollectorStateRoundTrip captures a collector mid-run, restores the
// snapshot into a fresh collector and into one that already holds other
// state, and requires (a) a re-capture identical to the snapshot and (b)
// the same summaries as the uninterrupted collector after a common suffix.
// The snapshot falls between a delivery and the Replicated event of its own
// handoff, so the restored collector must still seal that replica.
func TestCollectorStateRoundTrip(t *testing.T) {
	const src, relay, dst, deviant = 0, 1, 2, 3
	prefix := func(c *Collector) {
		c.Generated(digest(1), 1, src, dst, 0)
		c.Generated(digest(2), 2, src, relay, 5*sim.Minute)
		c.Generated(digest(3), 3, relay, dst, 6*sim.Minute)
		c.Replicated(digest(1), src, relay, sim.Minute)
		// digest(2) is delivered and sealed before the snapshot.
		c.Delivered(digest(2), 7*sim.Minute)
		c.Replicated(digest(2), src, relay, 7*sim.Minute)
		c.Tested(deviant, true, 8*sim.Minute)
		c.Tested(deviant, false, 9*sim.Minute)
		c.Detected(deviant, wire.ReasonDropped, digest(1), 9*sim.Minute, 4*sim.Minute)
		// digest(1) is delivered; its handoff's Replicated comes after the
		// snapshot.
		c.Delivered(digest(1), 10*sim.Minute)
	}
	suffix := func(c *Collector) {
		c.Replicated(digest(1), relay, dst, 10*sim.Minute)
		c.Replicated(digest(3), relay, deviant, 11*sim.Minute)
		c.Detected(deviant, wire.ReasonCheated, digest(3), 12*sim.Minute, 5*sim.Minute)
		c.Detected(relay, wire.ReasonLied, digest(3), 13*sim.Minute, 5*sim.Minute)
		c.Tested(relay, false, 13*sim.Minute)
	}

	ref := NewCollector()
	prefix(ref)
	st := ref.State()
	if len(st.Generated) != 3 || len(st.Delivered) != 2 || len(st.Sealed) != 1 || len(st.Detections) != 1 || st.TestsRun != 2 {
		t.Fatalf("snapshot does not cover the script: %+v", st)
	}

	fresh := NewCollector()
	fresh.Restore(st)
	used := NewCollector()
	used.Generated(digest(9), 9, relay, src, 0)
	used.Delivered(digest(9), sim.Minute)
	used.Detected(src, wire.ReasonLied, digest(9), sim.Minute, 0)
	used.Tested(src, false, sim.Minute)
	used.Restore(st)

	suffix(ref)
	deviants := []trace.NodeID{deviant}
	for name, c := range map[string]*Collector{"fresh": fresh, "used": used} {
		if got := c.State(); !reflect.DeepEqual(got, st) {
			t.Errorf("%s: re-captured state differs:\n got %+v\nwant %+v", name, got, st)
		}
		suffix(c)
		if got, want := c.Summarize(), ref.Summarize(); got != want {
			t.Errorf("%s: summary %+v, uninterrupted %+v", name, got, want)
		}
		if got, want := c.SummarizeDetection(deviants), ref.SummarizeDetection(deviants); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: detection summary %+v, uninterrupted %+v", name, got, want)
		}
		if got, want := c.PerSource(), ref.PerSource(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: per-source stats %+v, uninterrupted %+v", name, got, want)
		}
		if got, want := c.State(), ref.State(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: final state %+v, uninterrupted %+v", name, got, want)
		}
		// digest(1) was sealed with its delivering handoff after the restore.
		if got := c.replicasAtDelivery[digest(1)]; got != 2 || !c.sealed[digest(1)] {
			t.Errorf("%s: digest(1) replicas at delivery = %d (sealed %t), want 2 and sealed", name, got, c.sealed[digest(1)])
		}
	}
}
