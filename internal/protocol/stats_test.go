package protocol

import (
	"testing"
	"time"

	"give2get/internal/obs"
	"give2get/internal/sim"
	"give2get/internal/trace"
	"give2get/internal/wire"
)

// TestSessionTelemetry drives a G2G Epidemic relay + test phase with a
// metrics registry attached and checks the protocol/crypto counters.
func TestSessionTelemetry(t *testing.T) {
	params := DefaultParams(30 * sim.Minute)
	params.HeavyHMACIterations = 4
	w := newWorld(t, G2GEpidemic, 4, params, nil)
	m := obs.NewMetrics()
	w.env.SetMetrics(m)
	w.env.SetSpans(obs.NewSpanRecorder(&m.Spans))

	w.generate(0, 0, 3)
	w.meet(sim.Minute, 0, 1)   // relay phase: 0 hands the message to 1
	w.meet(2*sim.Minute, 1, 3) // 1 delivers to destination 3

	// After Δ1 the source tests its relay.
	w.meet(params.Delta1.Add(sim.Minute), 0, 1)

	if got := m.Protocol.TestsStarted.Load(); got != 1 {
		t.Fatalf("tests started = %d, want 1", got)
	}
	if got := m.Protocol.TestsPassed.Load(); got != 1 {
		t.Fatalf("tests passed = %d, want 1", got)
	}
	if got := m.Protocol.TestsFailed.Load(); got != 0 {
		t.Fatalf("tests failed = %d, want 0", got)
	}
	// The relay answered with a storage proof (only one onward PoR), so both
	// sides owe the heavy HMAC: two obligations, each node charged in full.
	if got := m.Crypto.HeavyHMAC.Count(); got != 2 {
		t.Fatalf("heavy HMAC count = %d, want 2", got)
	}
	if got := m.Crypto.HeavyHMACIterations.Load(); got != 8 {
		t.Fatalf("heavy HMAC iterations = %d, want 8", got)
	}
	for _, id := range []trace.NodeID{0, 1} {
		if got := w.nodes[id].UsageSnapshot().HeavyHMACIterations; got != 4 {
			t.Errorf("node %d charged %d heavy-HMAC iterations, want 4", id, got)
		}
	}
	// The source recomputed over a byte-identical copy under the same seed,
	// so its call hit the memo the relay's proof filled (the passed test
	// shows the hit returned the relay's digest): one keystream walk.
	if got := spanOf(m, obs.SpanCrypto).Count; got != 1 {
		t.Errorf("crypto_hmac walks = %d, want 1 for 2 obligations", got)
	}

	snap := m.Snapshot()
	// The relay phase must have accounted RELAY_RQST, RELAY_OK, RELAY, POR,
	// KEY wire messages by name, with bytes matching the recorded counts.
	for _, name := range []string{"RELAY_RQST", "RELAY_OK", "RELAY", "POR", "KEY", "POR_RQST"} {
		ws, ok := snap.Protocol.Wire[name]
		if !ok || ws.Count == 0 {
			t.Fatalf("wire stats missing %s: %+v", name, snap.Protocol.Wire)
		}
		if ws.Bytes <= ws.Count*21 {
			t.Fatalf("wire bytes for %s implausibly small: %+v", name, ws)
		}
	}
	if snap.Protocol.WireSizes.Count == 0 {
		t.Fatal("wire size histogram empty")
	}

	// Detaching stops recording without breaking the protocol.
	w.env.SetMetrics(nil)
	before := m.Protocol.QualityUpdates.Load()
	w.meet(params.Delta1.Add(2*sim.Minute), 0, 2)
	if got := m.Protocol.QualityUpdates.Load(); got != before {
		t.Fatalf("detached env still recorded quality updates")
	}
}

// TestKindNamerWired checks SetMetrics installs the wire-kind names.
func TestKindNamerWired(t *testing.T) {
	params := DefaultParams(30 * sim.Minute)
	w := newWorld(t, Epidemic, 2, params, nil)
	m := obs.NewMetrics()
	w.env.SetMetrics(m)
	namer := m.Protocol.KindNamer()
	if namer == nil {
		t.Fatal("KindNamer not set")
	}
	if got := namer(uint8(wire.KindProofOfRelay)); got != "POR" {
		t.Fatalf("KindNamer(POR kind) = %q", got)
	}
}

// TestHeavyHMACNestsUnderTestSpan pins the span ledger's accounting of the
// storage proofs a test phase computes: the heavy-HMAC time must be nested
// under the open test span, so the test span's self time excludes it and the
// two add up to no more than the test span's wall time. Counting the same
// keystream walk in both would push the ledger's attributed share past 100%.
func TestHeavyHMACNestsUnderTestSpan(t *testing.T) {
	params := DefaultParams(30 * sim.Minute)
	// Heavy enough that the keystream walk dwarfs the PoR span's envelope
	// work, so double counting cannot hide in timer noise.
	params.HeavyHMACIterations = 1 << 14
	w := newWorld(t, G2GEpidemic, 4, params, nil)
	m := obs.NewMetrics()
	w.env.SetMetrics(m)
	w.env.SetSpans(obs.NewSpanRecorder(&m.Spans))

	w.generate(0, 0, 3)
	w.meet(sim.Minute, 0, 1)
	w.meet(2*sim.Minute, 1, 3)
	// After Δ1 the source tests its relay, which answers with a storage
	// proof (it holds only one onward PoR).
	w.meet(params.Delta1.Add(sim.Minute), 0, 1)

	test, crypto := spanOf(m, obs.SpanTest), spanOf(m, obs.SpanCrypto)
	if test.Count == 0 || crypto.Count == 0 {
		t.Fatalf("test spans = %d, crypto_hmac spans = %d; want both recorded", test.Count, crypto.Count)
	}
	self, hmac, wall := time.Duration(test.SelfNS), time.Duration(crypto.WallNS), time.Duration(test.WallNS)
	if self+hmac > wall {
		t.Fatalf("Self(test) %v + Wall(crypto_hmac) %v = %v exceeds Wall(test) %v: heavy-HMAC time counted twice",
			self, hmac, self+hmac, wall)
	}
}

// spanOf returns the registry's accounting of one span; zero when it never
// ran.
func spanOf(m *obs.Metrics, sp obs.Span) obs.SpanSnapshot {
	for _, s := range m.Snapshot().Spans {
		if s.Name == sp.String() {
			return s
		}
	}
	return obs.SpanSnapshot{}
}
