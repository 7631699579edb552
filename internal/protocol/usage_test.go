package protocol

import (
	"testing"

	"give2get/internal/g2gcrypto"
	"give2get/internal/sim"
	"give2get/internal/trace"
	"give2get/internal/wire"
)

func TestUsageCountersAccumulate(t *testing.T) {
	w := newWorld(t, G2GEpidemic, 4, testParams(), nil)
	w.generate(0, 0, 3)
	w.meet(sim.Minute, 0, 1)

	src := w.nodes[0].UsageSnapshot()
	relay := w.nodes[1].UsageSnapshot()
	if src.Signatures == 0 {
		t.Error("source spent no signatures despite a relay handoff")
	}
	if src.Verifications == 0 || relay.Verifications == 0 {
		t.Error("no verifications counted")
	}
	if src.PayloadTxBytes == 0 {
		t.Error("no payload bytes transmitted")
	}
	if relay.PayloadRxBytes != src.PayloadTxBytes {
		t.Errorf("rx %d != tx %d", relay.PayloadRxBytes, src.PayloadTxBytes)
	}
	if src.ControlMessages == 0 {
		t.Error("no control messages counted")
	}
}

func TestUsageHeavyHMACCounted(t *testing.T) {
	params := testParams()
	w := newWorld(t, G2GEpidemic, 3, params, nil)
	w.generate(0, 0, 2)
	w.meet(sim.Minute, 0, 1)
	// Relay 1 has no onward PoRs: the challenge forces a storage proof,
	// which both sides account for.
	w.meet(params.Delta1+sim.Minute, 0, 1)
	relay := w.nodes[1].UsageSnapshot()
	source := w.nodes[0].UsageSnapshot()
	want := int64(params.HeavyHMACIterations)
	if relay.HeavyHMACIterations != want {
		t.Errorf("relay HMAC iterations = %d, want %d", relay.HeavyHMACIterations, want)
	}
	if source.HeavyHMACIterations != want {
		t.Errorf("source (verifier) HMAC iterations = %d, want %d", source.HeavyHMACIterations, want)
	}
}

func TestMemoryBytesTracksBuffers(t *testing.T) {
	for _, kind := range []Kind{Epidemic, G2GEpidemic, DelegationFrequency, G2GDelegationFrequency} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			w := newWorld(t, kind, 4, testParams(), nil)
			before := w.nodes[0].MemoryBytes()
			if before != 0 {
				t.Fatalf("fresh node memory = %d", before)
			}
			w.generate(40*sim.Minute, 0, 3)
			after := w.nodes[0].MemoryBytes()
			if after <= before {
				t.Errorf("memory did not grow after generation: %d", after)
			}
		})
	}
}

// memoryReference is MemoryBytes recomputed by walking a G2G node's buffers:
// the value the maintained counter must equal after every change.
func memoryReference(t *testing.T, n Node) int64 {
	t.Helper()
	var total int64
	switch n := n.(type) {
	case *g2gNode:
		for _, c := range n.custody {
			if (c.del == nil) != (n.del == nil) {
				t.Fatalf("copy %x has delegation state: %v; its node: %v", c.hash[:4], c.del != nil, n.del != nil)
			}
			total += int64(len(c.raw))
			total += int64(len(c.pors)) * porFootprint
			if c.del != nil {
				total += int64(len(c.del.failedFQ)) * porFootprint
			}
		}
		total += int64(len(n.custody)) * hashFootprint
		for _, p := range n.pendingIn {
			total += int64(len(p.encrypted))
		}
		if n.del != nil {
			total += n.del.quality.historyBytes()
		}
	default:
		t.Fatalf("%T is not a G2G node", n)
	}
	return total
}

// expirer is the session-start expiry step of the G2G node.
type expirer interface{ expire(now sim.Time) }

// holds reports whether a G2G node has custody of h.
func holds(t *testing.T, n Node, h g2gcrypto.Digest) bool {
	t.Helper()
	var ok bool
	switch n := n.(type) {
	case *g2gNode:
		_, ok = n.custody[h]
	default:
		t.Fatalf("%T is not a G2G node", n)
	}
	return ok
}

// checkMemory asserts the maintained MemoryBytes of every node against the
// walk.
func checkMemory(w *world, step string) {
	w.t.Helper()
	for i, n := range w.nodes {
		if got, want := n.MemoryBytes(), memoryReference(w.t, n); got != want {
			w.t.Fatalf("after %s: node %d MemoryBytes = %d, walk = %d", step, i, got, want)
		}
	}
}

// expireAll runs every node's expiry step at now, as a session would.
func expireAll(w *world, now sim.Time) {
	for _, n := range w.nodes {
		n.(expirer).expire(now)
	}
}

func TestG2GEpidemicMemoryCounterMatchesWalk(t *testing.T) {
	params := testParams()
	w := newWorld(t, G2GEpidemic, 6, params, map[trace.NodeID]Behavior{2: {Deviation: Dropper}})
	h := w.generate(sim.Minute, 0, 5)
	checkMemory(w, "generation")

	w.meet(2*sim.Minute, 0, 1)
	w.meet(3*sim.Minute, 1, 3)
	w.meet(4*sim.Minute, 1, 4)
	if w.nodes[1].(*g2gNode).custody[h].raw != nil {
		t.Fatal("relay kept its payload after two PoRs")
	}
	checkMemory(w, "relays dropping the payload after two PoRs")

	w.meet(5*sim.Minute, 0, 2)
	checkMemory(w, "a dropper taking a copy")

	// A handoff whose key never opens it: the pending entry is inserted,
	// overwritten by a second RELAY, and deleted by the failed reveal.
	from, to := w.nodes[3].(*g2gNode), w.nodes[5].(*g2gNode)
	c := from.custody[h]
	for i := 0; i < 2; i++ {
		encrypted, err := g2gcrypto.EncryptPayload(newSessionKey(w.env.RNG), c.raw, rngReader{w.env.RNG})
		if err != nil {
			t.Fatal(err)
		}
		transfer := new(wire.Scratch).Sign(from.self, 6*sim.Minute, wire.RelayTransfer{Hash: h, GenAt: c.genAt, Encrypted: encrypted})
		if _, ok := to.handleRelayTransfer(6*sim.Minute, transfer); !ok {
			t.Fatal("transfer refused")
		}
		checkMemory(w, "a pending handoff")
	}
	reveal := new(wire.Scratch).Sign(from.self, 6*sim.Minute, wire.KeyReveal{Hash: h, Key: newSessionKey(w.env.RNG)})
	to.handleKeyReveal(6*sim.Minute, reveal, from.ID())
	if len(to.pendingIn) != 0 {
		t.Fatal("failed reveal left the handoff pending")
	}
	checkMemory(w, "a reveal that fails to decrypt")

	w.meet(32*sim.Minute, 0, 1)
	w.meet(33*sim.Minute, 0, 2)
	if !w.rec.detectedNode(2) {
		t.Fatal("dropper not detected")
	}
	checkMemory(w, "sender tests and a PoM")

	expireAll(w, sim.Minute+params.Delta2-1)
	if !holds(t, w.nodes[0], h) {
		t.Fatal("custody expired before Δ2")
	}
	checkMemory(w, "an expiry step before Δ2")
	expireAll(w, sim.Minute+params.Delta2)
	for i, n := range w.nodes {
		if holds(t, n, h) {
			t.Fatalf("node %d kept custody past Δ2", i)
		}
	}
	checkMemory(w, "expiry at Δ2")
}

func TestG2GDelegationMemoryCounterMatchesWalk(t *testing.T) {
	params := testParams()
	w := newWorld(t, G2GDelegationFrequency, 8, params, map[trace.NodeID]Behavior{
		1: {Deviation: Cheater},
		6: {Deviation: Dropper},
	})
	primeQuality(w, 0, 5, 1, 0, sim.Minute)             // source: quality 1
	primeQuality(w, 6, 5, 2, 5*sim.Minute, sim.Minute)  // dropper: 2
	primeQuality(w, 1, 5, 3, 10*sim.Minute, sim.Minute) // cheater: 3
	primeQuality(w, 2, 5, 1, 15*sim.Minute, sim.Minute)
	primeQuality(w, 3, 5, 1, 20*sim.Minute, sim.Minute)
	checkMemory(w, "quality priming")

	h := w.generate(frame1, 0, 5)
	checkMemory(w, "generation")

	w.meet(frame1+1*sim.Minute, 0, 4) // quality 0 < 1: first failed FQ
	w.meet(frame1+2*sim.Minute, 0, 7) // second failed FQ
	checkMemory(w, "two failed FQ declarations")

	w.meet(frame1+3*sim.Minute, 0, 6) // the dropper qualifies and drops
	checkMemory(w, "a dropper taking a copy")

	w.meet(frame1+4*sim.Minute, 0, 1) // the cheater qualifies (label 3)
	w.meet(frame1+5*sim.Minute, 0, 3) // quality 1 < 3: third failed FQ, trimmed
	src := w.nodes[0].(*g2gNode).custody[h]
	if len(src.del.failedFQ) != 2 {
		t.Fatalf("source keeps %d failed FQ declarations, want 2", len(src.del.failedFQ))
	}
	checkMemory(w, "the failed-FQ trim")

	// The cheater presents label 0, so the low-quality nodes qualify and it
	// drops the payload after two PoRs.
	w.meet(frame1+6*sim.Minute, 1, 2)
	w.meet(frame1+7*sim.Minute, 1, 3)
	if w.nodes[1].(*g2gNode).custody[h].raw != nil {
		t.Fatal("cheater kept its payload after two PoRs")
	}
	checkMemory(w, "a cheater dropping the payload after two PoRs")

	w.meet(frame1+params.Delta1+sim.Minute, 0, 6)
	w.meet(frame1+params.Delta1+2*sim.Minute, 0, 1)
	if !w.rec.detectedNode(6) || !w.rec.detectedNode(1) {
		t.Fatalf("dropper and cheater not both detected: %+v", w.rec.detected)
	}
	checkMemory(w, "sender tests and two PoMs")

	expireAll(w, frame1+params.Delta2-1)
	checkMemory(w, "an expiry step before Δ2")
	expireAll(w, frame1+params.Delta2)
	for i, n := range w.nodes {
		if holds(t, n, h) {
			t.Fatalf("node %d kept custody past Δ2", i)
		}
	}
	checkMemory(w, "expiry at Δ2")
}

// TestG2GExpiryBoundLoweredByOlderCopy covers the expiry bound's one subtle
// case: a node whose bound a walk has set from its own young message then
// receives a copy generated earlier. The copy must still expire exactly at
// its own genAt+Δ2.
func TestG2GExpiryBoundLoweredByOlderCopy(t *testing.T) {
	params := testParams()
	for _, kind := range []Kind{G2GEpidemic, G2GDelegationFrequency} {
		t.Run(kind.String(), func(t *testing.T) {
			w := newWorld(t, kind, 4, params, nil)
			primeQuality(w, 1, 3, 1, 0, sim.Minute) // node 1 qualifies toward 3
			old := w.generate(frame1, 0, 3)
			young := w.generate(frame1+5*sim.Minute, 1, 2)
			w.meet(frame1+6*sim.Minute, 1, 2) // node 1's walk sets its bound
			w.meet(frame1+10*sim.Minute, 0, 1)
			n1 := w.nodes[1]
			if !holds(t, n1, old) {
				t.Fatal("node 1 did not receive the older copy")
			}
			n1.(expirer).expire(frame1 + params.Delta2 - 1)
			if !holds(t, n1, old) {
				t.Fatal("older copy expired before its genAt+Δ2")
			}
			n1.(expirer).expire(frame1 + params.Delta2)
			if holds(t, n1, old) {
				t.Fatal("older copy survived its genAt+Δ2")
			}
			if !holds(t, n1, young) {
				t.Fatal("younger message expired with the older copy")
			}
			checkMemory(w, "expiry of the older copy")
		})
	}
}

func TestMemorySampleIntegration(t *testing.T) {
	w := newWorld(t, Epidemic, 2, testParams(), nil)
	w.nodes[0].AddMemorySample(1234.5)
	w.nodes[0].AddMemorySample(0.5)
	if got := w.nodes[0].UsageSnapshot().MemoryByteSeconds; got != 1235 {
		t.Errorf("MemoryByteSeconds = %v, want 1235", got)
	}
}

func TestEnergyModel(t *testing.T) {
	m := EnergyModel{
		PerSignature:      2,
		PerVerification:   3,
		PerHMACIteration:  0.5,
		PerPayloadByte:    0.1,
		PerControlMessage: 1,
	}
	u := Usage{
		Signatures:          4,
		Verifications:       2,
		HeavyHMACIterations: 10,
		PayloadTxBytes:      100,
		PayloadRxBytes:      50,
		ControlMessages:     3,
	}
	want := 2.0*4 + 3.0*2 + 0.5*10 + 0.1*150 + 1.0*3
	if got := m.Energy(u); got != want {
		t.Errorf("Energy = %v, want %v", got, want)
	}
	if DefaultEnergyModel().Energy(u) <= 0 {
		t.Error("default model prices this usage at zero")
	}
	// The paper requires the full heavy HMAC to cost more than relaying:
	// at the default iteration count it must exceed a signature + payload.
	def := DefaultEnergyModel()
	hmacCost := def.PerHMACIteration * 1024
	relayCost := def.PerSignature + def.PerPayloadByte*200
	if hmacCost <= relayCost {
		t.Errorf("heavy HMAC cost %.2f does not exceed relay cost %.2f", hmacCost, relayCost)
	}
}

func TestVanillaProtocolsCountTraffic(t *testing.T) {
	w := newWorld(t, Epidemic, 3, testParams(), nil)
	w.generate(0, 0, 2)
	w.meet(sim.Minute, 0, 1)
	if w.nodes[0].UsageSnapshot().PayloadTxBytes == 0 {
		t.Error("epidemic transfer not counted")
	}
	if w.nodes[1].UsageSnapshot().PayloadRxBytes == 0 {
		t.Error("epidemic reception not counted")
	}

	wd := newWorld(t, DelegationFrequency, 3, testParams(), nil)
	primeQuality(wd, 1, 2, 2, 0, sim.Minute)
	wd.generate(10*sim.Minute, 0, 2)
	wd.meet(11*sim.Minute, 0, 1)
	if wd.nodes[0].UsageSnapshot().PayloadTxBytes == 0 {
		t.Error("delegation transfer not counted")
	}
	_ = trace.NodeID(0)
}
