package protocol

import (
	"testing"

	"give2get/internal/sim"
	"give2get/internal/trace"
)

func TestEpidemicDirectDelivery(t *testing.T) {
	w := newWorld(t, Epidemic, 3, testParams(), nil)
	h := w.generate(0, 0, 2)
	w.meet(5*sim.Minute, 0, 2)
	at, ok := w.rec.delivered[h]
	if !ok {
		t.Fatal("message not delivered on direct contact")
	}
	if at != 5*sim.Minute {
		t.Errorf("delivered at %v, want 5m", at)
	}
}

func TestEpidemicMultiHop(t *testing.T) {
	w := newWorld(t, Epidemic, 4, testParams(), nil)
	h := w.generate(0, 0, 3)
	w.meet(1*sim.Minute, 0, 1)
	w.meet(2*sim.Minute, 1, 2)
	w.meet(3*sim.Minute, 2, 3)
	if _, ok := w.rec.delivered[h]; !ok {
		t.Fatal("message not delivered over three hops")
	}
	// Replicas: 0->1, 1->2, 2->3 (the delivery transfer counts).
	if len(w.rec.replicated) != 3 {
		t.Errorf("replicas = %d, want 3", len(w.rec.replicated))
	}
}

func TestEpidemicNoDuplicateTransfers(t *testing.T) {
	w := newWorld(t, Epidemic, 3, testParams(), nil)
	w.generate(0, 0, 2)
	w.meet(1*sim.Minute, 0, 1)
	w.meet(2*sim.Minute, 0, 1) // meet again: nothing new to hand over
	if len(w.rec.replicated) != 1 {
		t.Errorf("replicas = %d, want 1 (no duplicate handoffs)", len(w.rec.replicated))
	}
}

func TestEpidemicTTLExpiry(t *testing.T) {
	params := testParams()
	w := newWorld(t, Epidemic, 3, params, nil)
	h := w.generate(0, 0, 2)
	// TTL (Δ1) is 30 minutes: a contact after expiry must not deliver.
	w.meet(params.Delta1+sim.Minute, 0, 2)
	if _, ok := w.rec.delivered[h]; ok {
		t.Fatal("message delivered after TTL expiry")
	}
	if len(w.rec.replicated) != 0 {
		t.Errorf("expired message still replicated %d times", len(w.rec.replicated))
	}
}

func TestEpidemicDropperBlackholes(t *testing.T) {
	w := newWorld(t, Epidemic, 4, testParams(), map[trace.NodeID]Behavior{
		1: {Deviation: Dropper},
	})
	h := w.generate(0, 0, 3)
	w.meet(1*sim.Minute, 0, 1) // dropper accepts, then drops
	w.meet(2*sim.Minute, 1, 2) // dropper has nothing to forward
	w.meet(3*sim.Minute, 2, 3)
	if _, ok := w.rec.delivered[h]; ok {
		t.Fatal("message delivered through a dropper chain")
	}
	// The dropper still receives messages destined to itself.
	h2 := w.generate(4*sim.Minute, 0, 1)
	w.meet(5*sim.Minute, 0, 1)
	if _, ok := w.rec.delivered[h2]; !ok {
		t.Fatal("dropper did not receive its own message")
	}
}

func TestEpidemicDropperDoesNotReaccept(t *testing.T) {
	w := newWorld(t, Epidemic, 3, testParams(), map[trace.NodeID]Behavior{
		1: {Deviation: Dropper},
	})
	w.generate(0, 0, 2)
	w.meet(1*sim.Minute, 0, 1)
	w.meet(2*sim.Minute, 0, 1)
	// The dropper marked the message seen on first receipt: one transfer.
	if len(w.rec.replicated) != 1 {
		t.Errorf("replicas = %d, want 1", len(w.rec.replicated))
	}
}

func TestEpidemicDropperWithOutsidersSparesCommunity(t *testing.T) {
	sameCommunity := func(a, b trace.NodeID) bool { return (a <= 1) == (b <= 1) }
	w := newWorld(t, Epidemic, 4, testParams(), map[trace.NodeID]Behavior{
		1: {Deviation: Dropper, OnlyOutsiders: true, SameCommunity: sameCommunity},
	})
	// 0 and 1 share a community: the dropper keeps 0's handoff and relays it.
	h := w.generate(0, 0, 3)
	w.meet(1*sim.Minute, 0, 1)
	w.meet(2*sim.Minute, 1, 3)
	if _, ok := w.rec.delivered[h]; !ok {
		t.Fatal("community-respecting dropper should have relayed an insider message")
	}
	// Node 2 is an outsider to 1: its messages are dropped.
	h2 := w.generate(3*sim.Minute, 2, 3)
	w.meet(4*sim.Minute, 2, 1)
	w.meet(5*sim.Minute, 1, 3)
	if _, ok := w.rec.delivered[h2]; ok {
		t.Fatal("outsider message should have been dropped")
	}
}

func TestEpidemicGenerateToSelfRejected(t *testing.T) {
	w := newWorld(t, Epidemic, 2, testParams(), nil)
	if err := w.nodes[0].Generate(0, 0, []byte("x")); err == nil {
		t.Error("self-destined message accepted")
	}
}

func TestEpidemicBufferShrinksAfterExpiry(t *testing.T) {
	params := testParams()
	w := newWorld(t, Epidemic, 3, params, nil)
	w.generate(0, 0, 2)
	w.meet(1*sim.Minute, 0, 1)
	n1 := w.nodes[1].(*plainNode)
	if len(n1.buffer) != 1 {
		t.Fatalf("buffer = %d, want 1", len(n1.buffer))
	}
	// A later session triggers expiry cleanup.
	w.meet(params.Delta1+2*sim.Minute, 1, 2)
	if len(n1.buffer) != 0 || len(n1.bufferOrder) != 0 {
		t.Errorf("buffer = %d (order %d) after TTL, want 0", len(n1.buffer), len(n1.bufferOrder))
	}
}
