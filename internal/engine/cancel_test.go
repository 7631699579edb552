package engine

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"give2get/internal/obs"
	"give2get/internal/protocol"
	"give2get/internal/trace"
)

// cancelSink cancels the run's context at the first record of the named
// event (and reason, when set), then yields until the engine has seen the
// cancellation, so the stop lands right there. check, when set, inspects
// the engine at that point.
type cancelSink struct {
	event, reason string
	cancel        context.CancelFunc
	eng           *engine
	check         func(*engine)
	fired         bool
}

func (c *cancelSink) Enabled(obs.Level) bool { return true }

func (c *cancelSink) Emit(r obs.Record) {
	if c.fired || r.Event != c.event || (c.reason != "" && r.Reason != c.reason) {
		return
	}
	c.fired = true
	if c.check != nil {
		c.check(c.eng)
	}
	c.cancel()
	for !c.eng.cancelled.Load() {
		runtime.Gosched()
	}
}

// TestCancelStopsRun cancels a run's context at two points: mid-window, as
// the first message is delivered, and in the drain, where nothing but memory
// ticks is queued (the trace's contacts all end inside the window, and the
// workload has fired). Each run returns ErrInterrupted, and a fresh run of
// the same configuration still reaches the uninterrupted audit digest.
func TestCancelStopsRun(t *testing.T) {
	base := auditConfig(t, protocol.G2GEpidemic)
	base.Deviants = []trace.NodeID{2, 7}
	base.Deviation = protocol.Dropper
	full := testTrace(t, 1)
	var early []trace.Contact
	for _, c := range full.Contacts() {
		if c.End < base.WindowTo {
			early = append(early, c)
		}
	}
	endsInWindow, err := trace.New(full.Name(), full.Nodes(), early)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		tr   *trace.Trace
		sink cancelSink
	}{
		{"mid-window", full, cancelSink{event: "deliver"}},
		{"drain-memory-ticks-only", endsInWindow, cancelSink{event: "phase", reason: obs.PhaseDrain.String(),
			check: func(e *engine) {
				if e.cursor != nil || len(e.active) != 0 || e.gens[len(e.gens)-1].body != nil {
					t.Errorf("the drain still queues contacts or generations (cursor open: %t, %d active contacts)",
						e.cursor != nil, len(e.active))
				}
			}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			cfg.Trace = tc.tr
			ref, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			mustAuditClean(t, ref)

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			sink := tc.sink
			sink.cancel = cancel
			cut := cfg
			cut.Context, cut.TraceSink = ctx, &sink
			e, err := newEngine(cut)
			if err != nil {
				t.Fatal(err)
			}
			sink.eng = e
			if res, err := e.run(); !errors.Is(err, ErrInterrupted) {
				t.Fatalf("cancelled run: got (%v, %v), want ErrInterrupted", res, err)
			}
			if !sink.fired {
				t.Fatalf("no %s record: the run was never cancelled", sink.event)
			}

			again, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if again.Audit.Digest != ref.Audit.Digest {
				t.Errorf("a fresh run after the interruption: digest %s, want %s", again.Audit.Digest, ref.Audit.Digest)
			}
		})
	}
}
