package protocol

import (
	"testing"

	"give2get/internal/g2gcrypto"
	"give2get/internal/sim"
	"give2get/internal/trace"
	"give2get/internal/wire"
)

func TestG2GEpidemicDelivery(t *testing.T) {
	w := newWorld(t, G2GEpidemic, 4, testParams(), nil)
	h := w.generate(0, 0, 3)
	w.meet(1*sim.Minute, 0, 1)
	w.meet(2*sim.Minute, 1, 3)
	if _, ok := w.rec.delivered[h]; !ok {
		t.Fatal("message not delivered over the relay")
	}
}

func TestG2GEpidemicFanOutLimit(t *testing.T) {
	// A relay hands the message to at most MaxRelays (2) further peers; the
	// source keeps offering ("the first two (at least) nodes it meets").
	w := newWorld(t, G2GEpidemic, 7, testParams(), nil)
	w.generate(0, 0, 6)
	w.meet(1*sim.Minute, 0, 1) // node 1 becomes a relay
	w.meet(2*sim.Minute, 1, 2)
	w.meet(3*sim.Minute, 1, 3)
	w.meet(4*sim.Minute, 1, 4) // beyond the relay's budget
	w.meet(5*sim.Minute, 0, 5) // the source is not capped
	fromRelay, fromSource := 0, 0
	for _, r := range w.rec.replicated {
		switch r.from {
		case 1:
			fromRelay++
		case 0:
			fromSource++
		}
	}
	if fromRelay != 2 {
		t.Errorf("relay created %d replicas, want 2", fromRelay)
	}
	if fromSource != 2 {
		t.Errorf("source created %d replicas, want 2 (nodes 1 and 5)", fromSource)
	}
}

func TestG2GEpidemicDeclineAlreadySeen(t *testing.T) {
	w := newWorld(t, G2GEpidemic, 3, testParams(), nil)
	w.generate(0, 0, 2)
	w.meet(1*sim.Minute, 0, 1)
	w.meet(2*sim.Minute, 0, 1) // node 1 declines: it has handled the hash
	count := 0
	for _, r := range w.rec.replicated {
		if r.to == 1 {
			count++
		}
	}
	if count != 1 {
		t.Errorf("node 1 accepted %d copies, want 1", count)
	}
}

func TestG2GEpidemicHonestRelayPassesTestWithPORs(t *testing.T) {
	params := testParams()
	w := newWorld(t, G2GEpidemic, 5, params, nil)
	w.generate(0, 0, 4)
	w.meet(1*sim.Minute, 0, 1) // 1 becomes a first relay
	w.meet(2*sim.Minute, 1, 2) // 1 collects PoR #1
	w.meet(3*sim.Minute, 1, 3) // 1 collects PoR #2
	// After Δ1 the source meets the relay again and challenges it.
	w.meet(params.Delta1+sim.Minute, 0, 1)
	if len(w.rec.tested) != 1 {
		t.Fatalf("tests run = %d, want 1", len(w.rec.tested))
	}
	if !w.rec.tested[0].passed {
		t.Error("honest relay with two PoRs failed the test")
	}
	if len(w.rec.detected) != 0 {
		t.Errorf("honest relay produced %d detections", len(w.rec.detected))
	}
}

func TestG2GEpidemicHonestRelayPassesTestWithStorageProof(t *testing.T) {
	params := testParams()
	w := newWorld(t, G2GEpidemic, 3, params, nil)
	w.generate(0, 0, 2)
	w.meet(1*sim.Minute, 0, 1) // 1 takes the message, finds no further relay
	w.meet(params.Delta1+sim.Minute, 0, 1)
	if len(w.rec.tested) != 1 || !w.rec.tested[0].passed {
		t.Fatalf("relay still storing the message failed the challenge: %+v", w.rec.tested)
	}
}

func TestG2GEpidemicDropperDetected(t *testing.T) {
	params := testParams()
	w := newWorld(t, G2GEpidemic, 3, params, map[trace.NodeID]Behavior{
		1: {Deviation: Dropper},
	})
	h := w.generate(0, 0, 2)
	w.meet(1*sim.Minute, 0, 1) // dropper signs the PoR, then drops
	w.meet(params.Delta1+5*sim.Minute, 0, 1)
	if !w.rec.detectedNode(1) {
		t.Fatal("dropper not detected")
	}
	d := w.rec.detected[0]
	if d.reason != wire.ReasonDropped {
		t.Errorf("reason = %v, want dropped", d.reason)
	}
	if d.ttlExpiry != params.Delta1 {
		t.Errorf("ttlExpiry = %v, want %v", d.ttlExpiry, params.Delta1)
	}
	if d.at != params.Delta1+5*sim.Minute {
		t.Errorf("detected at %v", d.at)
	}
	// The PoM broadcast blacklists the dropper everywhere.
	if !w.nodes[2].Blacklisted(1) {
		t.Error("PoM broadcast did not blacklist the dropper at node 2")
	}
	if !w.nodes[0].Blacklisted(1) {
		t.Error("accuser did not blacklist the dropper")
	}
	_ = h
}

func TestG2GEpidemicNoTestBeforeDelta1(t *testing.T) {
	params := testParams()
	w := newWorld(t, G2GEpidemic, 3, params, map[trace.NodeID]Behavior{
		1: {Deviation: Dropper},
	})
	w.generate(0, 0, 2)
	w.meet(1*sim.Minute, 0, 1)
	w.meet(params.Delta1-sim.Minute, 0, 1) // before Δ1: no challenge yet
	if len(w.rec.tested) != 0 {
		t.Errorf("test ran before Δ1: %+v", w.rec.tested)
	}
}

func TestG2GEpidemicNoTestAfterDelta2(t *testing.T) {
	params := testParams()
	w := newWorld(t, G2GEpidemic, 3, params, map[trace.NodeID]Behavior{
		1: {Deviation: Dropper},
	})
	w.generate(0, 0, 2)
	w.meet(1*sim.Minute, 0, 1)
	w.meet(params.Delta2+sim.Minute, 0, 1) // too late: all state expired
	if len(w.rec.tested) != 0 {
		t.Errorf("test ran after Δ2: %+v", w.rec.tested)
	}
	if len(w.rec.detected) != 0 {
		t.Errorf("detection after Δ2: %+v", w.rec.detected)
	}
}

func TestG2GEpidemicTestRunsOnce(t *testing.T) {
	params := testParams()
	w := newWorld(t, G2GEpidemic, 5, params, nil)
	w.generate(0, 0, 4)
	w.meet(1*sim.Minute, 0, 1)
	w.meet(2*sim.Minute, 1, 2)
	w.meet(3*sim.Minute, 1, 3)
	w.meet(params.Delta1+sim.Minute, 0, 1)
	w.meet(params.Delta1+10*sim.Minute, 0, 1)
	if len(w.rec.tested) != 1 {
		t.Errorf("tests = %d, want exactly 1", len(w.rec.tested))
	}
}

func TestG2GEpidemicDestinationNotTested(t *testing.T) {
	params := testParams()
	w := newWorld(t, G2GEpidemic, 3, params, nil)
	h := w.generate(0, 0, 1)
	w.meet(1*sim.Minute, 0, 1) // direct delivery: 1 is the destination
	if _, ok := w.rec.delivered[h]; !ok {
		t.Fatal("not delivered")
	}
	w.meet(params.Delta1+sim.Minute, 0, 1)
	if len(w.rec.tested) != 0 {
		t.Error("the sender tested the destination")
	}
}

func TestG2GEpidemicDropperWithOutsiders(t *testing.T) {
	params := testParams()
	sameCommunity := func(a, b trace.NodeID) bool { return (a <= 1) == (b <= 1) }
	w := newWorld(t, G2GEpidemic, 4, params, map[trace.NodeID]Behavior{
		1: {Deviation: Dropper, OnlyOutsiders: true, SameCommunity: sameCommunity},
	})
	// Insider message: kept faithfully, test passes.
	w.generate(0, 0, 3)
	w.meet(1*sim.Minute, 0, 1)
	w.meet(params.Delta1+sim.Minute, 0, 1)
	if len(w.rec.tested) != 1 || !w.rec.tested[0].passed {
		t.Fatalf("insider handoff should pass the test: %+v", w.rec.tested)
	}
	// Outsider message (source 2): dropped, detected.
	w.generate(params.Delta1+2*sim.Minute, 2, 3)
	w.meet(params.Delta1+3*sim.Minute, 2, 1)
	w.meet(2*params.Delta1+5*sim.Minute, 2, 1)
	if !w.rec.detectedNode(1) {
		t.Error("outsider dropper not detected")
	}
}

func TestG2GEpidemicRelayDiscardsPayloadAfterTwoPORs(t *testing.T) {
	w := newWorld(t, G2GEpidemic, 5, testParams(), nil)
	h := w.generate(0, 0, 4)
	w.meet(1*sim.Minute, 0, 1)
	n1, ok := w.nodes[1].(*g2gNode)
	if !ok {
		t.Fatal("unexpected node type")
	}
	c := n1.custody[h]
	if c == nil || c.raw == nil {
		t.Fatal("relay should hold the payload")
	}
	w.meet(2*sim.Minute, 1, 2)
	w.meet(3*sim.Minute, 1, 3)
	if c.raw != nil {
		t.Error("relay with two PoRs should discard the payload")
	}
	if len(c.pors) != 2 {
		t.Errorf("pors = %d, want 2", len(c.pors))
	}
	// The source never discards: it verifies storage proofs.
	n0, ok := w.nodes[0].(*g2gNode)
	if !ok {
		t.Fatal("unexpected node type")
	}
	if n0.custody[h].raw == nil {
		t.Error("source discarded the payload before Δ2")
	}
}

func TestG2GEpidemicStateExpiresAtDelta2(t *testing.T) {
	params := testParams()
	w := newWorld(t, G2GEpidemic, 3, params, nil)
	h := w.generate(0, 0, 2)
	w.meet(1*sim.Minute, 0, 1)
	n1, ok := w.nodes[1].(*g2gNode)
	if !ok {
		t.Fatal("unexpected node type")
	}
	if _, ok := n1.custody[h]; !ok {
		t.Fatal("custody missing")
	}
	w.meet(params.Delta2+sim.Minute, 1, 2)
	if _, ok := n1.custody[h]; ok {
		t.Error("custody survived Δ2")
	}
	// Custody is the seen set: past Δ2 the message is no longer declined.
	at := params.Delta2 + 2*sim.Minute
	req := new(wire.Scratch).Sign(w.nodes[2].(*g2gNode).self, at, wire.RelayRequest{Hash: h})
	if resp, ok := n1.handleRelayRequest(at, req); !ok || resp.Body.Kind() != wire.KindRelayOK {
		t.Errorf("RELAY_RQST past Δ2 answered %v, want RELAY_OK", resp)
	}
}

func TestG2GEpidemicBlacklistedPeerGetsNoRelays(t *testing.T) {
	params := testParams()
	w := newWorld(t, G2GEpidemic, 4, params, map[trace.NodeID]Behavior{
		1: {Deviation: Dropper},
	})
	w.generate(0, 0, 3)
	w.meet(1*sim.Minute, 0, 1)
	w.meet(params.Delta1+sim.Minute, 0, 1) // detection + broadcast
	if !w.rec.detectedNode(1) {
		t.Fatal("dropper not detected")
	}
	// A fresh message from node 2 must avoid the blacklisted node.
	w.generate(params.Delta1+2*sim.Minute, 2, 3)
	before := len(w.rec.replicated)
	w.meet(params.Delta1+3*sim.Minute, 2, 1)
	for _, r := range w.rec.replicated[before:] {
		if r.to == 1 {
			t.Error("blacklisted node still received a relay")
		}
	}
}

func TestG2GEpidemicCostBelowEpidemic(t *testing.T) {
	// The fan-out-2 rule must produce fewer replicas than vanilla epidemic
	// on an identical meeting schedule.
	run := func(kind Kind) int {
		w := newWorld(t, kind, 9, testParams(), nil)
		w.generate(0, 0, 8)
		w.meet(sim.Minute, 0, 1) // node 1 takes a copy
		// The relay meets every remaining non-destination node: vanilla
		// epidemic hands a copy to each, a G2G relay stops after two.
		at := 2 * sim.Minute
		for b := 2; b <= 7; b++ {
			w.meet(at, 1, trace.NodeID(b))
			at += sim.Second
		}
		return len(w.rec.replicated)
	}
	epidemic := run(Epidemic)
	g2g := run(G2GEpidemic)
	if epidemic != 7 {
		t.Errorf("epidemic cost = %d, want 7", epidemic)
	}
	if g2g != 3 {
		t.Errorf("g2g epidemic cost = %d, want 3 (one source handoff + two relay forwards)", g2g)
	}
}

// TestG2GEpidemicIgnoresDelegationFields hands a G2G Epidemic node a validly
// signed RELAY that carries a quality label and an FQ_RESP attachment, which
// only G2G Delegation sends, followed by the key. The node must sign a PoR
// naming only the hash, the sender and itself, and keep a copy without label
// or attachments. As the destination it must not audit the attachment, whose
// claim a G2G Delegation destination would expose as a lie.
func TestG2GEpidemicIgnoresDelegationFields(t *testing.T) {
	for _, dest := range []trace.NodeID{2, 1} {
		w := newWorld(t, G2GEpidemic, 4, testParams(), nil)
		a, b := w.nodes[0].(*g2gNode), w.nodes[1].(*g2gNode)
		h := w.generate(frame1, 0, dest)
		c := a.custody[h]
		at := frame1 + sim.Minute
		// Node 3 declares quality 5 toward node 1 in frame 0; node 1 never
		// met it, so the claim is false.
		lie := new(wire.Scratch).Sign(w.nodes[3].(*g2gNode).self, at, wire.FQResponse{Responder: 3, DPrime: 1, FQ: 5, Frame: 0})
		key := newSessionKey(w.env.RNG)
		encrypted, err := g2gcrypto.EncryptPayload(key, c.raw, rngReader{w.env.RNG})
		if err != nil {
			t.Fatal(err)
		}
		transfer := new(wire.Scratch).Sign(a.self, at, wire.RelayTransfer{
			Hash: h, FM: 7, GenAt: c.genAt, Encrypted: encrypted, Attachments: []wire.Signed{lie},
		})
		por, ok := b.handleRelayTransfer(at, transfer)
		if !ok {
			t.Fatal("transfer refused")
		}
		if body, ok := por.Body.(wire.ProofOfRelay); !ok || body != (wire.ProofOfRelay{Hash: h, From: a.ID(), To: b.ID()}) {
			t.Errorf("dest %d: PoR %+v names more than the hash, the sender and the receiver", dest, por.Body)
		}
		b.handleKeyReveal(at, new(wire.Scratch).Sign(a.self, at, wire.KeyReveal{Hash: h, Key: key}), a.ID())
		got, ok := b.custody[h]
		if !ok || len(b.custody) != 1 {
			t.Fatalf("dest %d: custody holds %d copies, the message's: %t; want the one copy", dest, len(b.custody), ok)
		}
		if got.del != nil {
			t.Errorf("dest %d: copy kept G2G Delegation state %+v (label, attachments); want none", dest, *got.del)
		}
		if _, delivered := w.rec.delivered[h]; delivered != (dest == 1) {
			t.Errorf("dest %d: delivered = %v", dest, delivered)
		}
		if len(w.rec.detected) != 0 {
			t.Errorf("dest %d: G2G Epidemic audited a delegation declaration: %+v", dest, w.rec.detected)
		}
	}
}
