package protocol

import (
	"reflect"
	"slices"
	"testing"

	"give2get/internal/sim"
	"give2get/internal/trace"
)

// step is one scripted action: a generation or a bidirectional meeting.
type step struct {
	at   sim.Time
	gen  bool
	a, b trace.NodeID
}

func runSteps(w *world, steps []step) {
	w.t.Helper()
	for _, s := range steps {
		if s.gen {
			w.generate(s.at, s.a, s.b)
		} else {
			w.meet(s.at, s.a, s.b)
		}
	}
}

// stateScript returns a prefix that leaves every interesting structure
// populated (custody, pending tests, quality history, failed-FQ
// declarations) and a suffix whose outcome depends on all of it
// (deliveries, sender tests, a dropper detection).
func stateScript(kind Kind) (prefix, suffix []step) {
	switch kind {
	case Epidemic, G2GEpidemic:
		prefix = []step{
			{at: 1 * sim.Minute, gen: true, a: 0, b: 5},
			{at: 2 * sim.Minute, a: 0, b: 1},
			{at: 3 * sim.Minute, a: 0, b: 2}, // dropper takes a copy
			{at: 4 * sim.Minute, a: 1, b: 3},
			{at: 5 * sim.Minute, a: 1, b: 4},
		}
		suffix = []step{
			{at: 6 * sim.Minute, a: 3, b: 5}, // delivery
			{at: 32 * sim.Minute, a: 0, b: 1},
			{at: 33 * sim.Minute, a: 0, b: 2}, // dropper caught (G2G)
		}
	case DelegationFrequency, DelegationLastContact:
		prefix = []step{
			{at: 1 * sim.Minute, a: 1, b: 5},
			{at: 2 * sim.Minute, a: 2, b: 5},
			{at: 3 * sim.Minute, a: 2, b: 5},
			{at: 5 * sim.Minute, gen: true, a: 0, b: 5},
			{at: 6 * sim.Minute, a: 0, b: 1},
			{at: 7 * sim.Minute, a: 0, b: 2}, // dropper qualifies, drops
		}
		suffix = []step{
			{at: 8 * sim.Minute, a: 1, b: 5}, // direct delivery
			{at: 9 * sim.Minute, a: 0, b: 3}, // unqualified peer, no handoff
		}
	default: // the G2G delegation flavors need a completed quality frame
		prefix = []step{
			{at: 1 * sim.Minute, a: 1, b: 5},
			{at: 2 * sim.Minute, a: 2, b: 5},
			{at: 3 * sim.Minute, a: 2, b: 5},
			{at: 35 * sim.Minute, gen: true, a: 0, b: 5},
			{at: 36 * sim.Minute, a: 0, b: 1},
			{at: 37 * sim.Minute, a: 0, b: 2}, // dropper qualifies, drops
			{at: 38 * sim.Minute, a: 0, b: 3}, // fails to qualify: failed FQ
		}
		suffix = []step{
			{at: 40 * sim.Minute, a: 1, b: 5}, // delivery behind a decoy FQ exchange
			{at: 66 * sim.Minute, a: 0, b: 1}, // storage-proof test passes
			{at: 67 * sim.Minute, a: 0, b: 2}, // dropper caught
		}
	}
	return prefix, suffix
}

// TestNodeStateRoundTrip captures every node mid-run, restores into a fresh
// same-configuration world, and proves (a) a re-capture is identical and
// (b) the restored world continues exactly like the uninterrupted one.
func TestNodeStateRoundTrip(t *testing.T) {
	const pop = 6
	behaviors := map[trace.NodeID]Behavior{2: {Deviation: Dropper}}
	for _, kind := range []Kind{Epidemic, G2GEpidemic, DelegationFrequency,
		DelegationLastContact, G2GDelegationFrequency, G2GDelegationLastContact} {
		t.Run(kind.String(), func(t *testing.T) {
			prefix, suffix := stateScript(kind)

			w1 := newWorld(t, kind, pop, testParams(), behaviors)
			runSteps(w1, prefix)
			states := make([]NodeState, pop)
			for i, n := range w1.nodes {
				states[i] = n.CaptureState()
			}
			rngState := w1.env.RNG.State()
			preDelivered := len(w1.rec.delivered)
			preReplicated := len(w1.rec.replicated)
			preTested := len(w1.rec.tested)
			preDetected := len(w1.rec.detected)

			w2 := newWorld(t, kind, pop, testParams(), behaviors)
			if err := w2.env.RNG.Restore(rngState); err != nil {
				t.Fatalf("restore rng: %v", err)
			}
			for i, n := range w2.nodes {
				if err := n.RestoreState(states[i]); err != nil {
					t.Fatalf("restore node %d: %v", i, err)
				}
			}
			for i, n := range w2.nodes {
				if got := n.CaptureState(); !reflect.DeepEqual(states[i], got) {
					t.Errorf("node %d: re-captured state differs from snapshot", i)
				}
				if got, want := n.MemoryBytes(), w1.nodes[i].MemoryBytes(); got != want {
					t.Errorf("node %d: restored MemoryBytes = %d, original %d", i, got, want)
				}
				if kind.IsG2G() {
					if got, want := n.MemoryBytes(), memoryReference(t, n); got != want {
						t.Errorf("node %d: restored MemoryBytes = %d, walk = %d", i, got, want)
					}
					if got, want := scanList(n), relayableBuild(t, w1.nodes[i]); !slices.Equal(got, want) {
						t.Errorf("node %d: restored relayable %x, a fresh build %x", i, got, want)
					}
				}
			}

			runSteps(w1, suffix)
			runSteps(w2, suffix)

			if got, want := len(w2.rec.replicated), len(w1.rec.replicated)-preReplicated; got != want {
				t.Fatalf("restored world saw %d replications in the suffix, want %d", got, want)
			}
			if !reflect.DeepEqual(w2.rec.replicated, w1.rec.replicated[preReplicated:]) {
				t.Error("suffix replication events diverged after restore")
			}
			if got, want := len(w2.rec.delivered), len(w1.rec.delivered)-preDelivered; got != want {
				t.Fatalf("restored world saw %d deliveries in the suffix, want %d", got, want)
			}
			for h, at := range w2.rec.delivered {
				if w1.rec.delivered[h] != at {
					t.Errorf("delivery of %x at %v after restore, original says %v", h[:4], at, w1.rec.delivered[h])
				}
			}
			if !reflect.DeepEqual(w2.rec.tested, w1.rec.tested[preTested:]) {
				t.Error("suffix test events diverged after restore")
			}
			if !reflect.DeepEqual(w2.rec.detected, w1.rec.detected[preDetected:]) {
				t.Error("suffix detections diverged after restore")
			}
			if kind.IsG2G() {
				// The scripts are built to end with the dropper exposed.
				if !w2.rec.detectedNode(2) {
					t.Error("restored world failed to detect the dropper")
				}
			}
			if len(w2.rec.delivered) == 0 {
				t.Error("suffix produced no delivery; script does not cross the checkpoint")
			}
		})
	}
}

// TestNodeStateKindMismatch pins the wrong-kind refusal: a state captured
// from one protocol must be refused by a node of another, also where both
// run on one node type.
func TestNodeStateKindMismatch(t *testing.T) {
	for _, pair := range [][2]Kind{
		{Epidemic, G2GEpidemic},
		{Epidemic, DelegationFrequency},
		{DelegationFrequency, DelegationLastContact},
		{G2GEpidemic, G2GDelegationFrequency},
		{G2GDelegationFrequency, G2GDelegationLastContact},
	} {
		w0 := newWorld(t, pair[0], 2, testParams(), nil)
		w1 := newWorld(t, pair[1], 2, testParams(), nil)
		if err := w1.nodes[0].RestoreState(w0.nodes[0].CaptureState()); err == nil {
			t.Errorf("%v node accepted a %v state", pair[1], pair[0])
		}
		if err := w0.nodes[0].RestoreState(w1.nodes[0].CaptureState()); err == nil {
			t.Errorf("%v node accepted a %v state", pair[0], pair[1])
		}
	}
	// A state of the right kind without its node type's branch is refused
	// too.
	for _, kind := range []Kind{Epidemic, G2GEpidemic} {
		w := newWorld(t, kind, 2, testParams(), nil)
		st := w.nodes[0].CaptureState()
		st.Plain, st.G2G = nil, nil
		if err := w.nodes[1].RestoreState(st); err == nil {
			t.Errorf("%v node accepted a state without its branch", kind)
		}
	}
}
