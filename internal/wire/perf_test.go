package wire

import (
	"testing"

	"give2get/internal/g2gcrypto"
	"give2get/internal/sim"
	"give2get/internal/trace"
)

// The ceilings below pin the scratch-buffered sign/verify round-trip on the
// fast provider — the path every protocol control message takes in a sweep.
// They are exact current values asserted as maxima.

func scratchFixture(t *testing.T) (*Scratch, g2gcrypto.System, g2gcrypto.Identity, Body) {
	t.Helper()
	sys, err := g2gcrypto.NewFast(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	id, err := sys.Identity(1)
	if err != nil {
		t.Fatal(err)
	}
	body := ProofOfRelay{
		Hash: g2gcrypto.Hash([]byte("m")),
		From: trace.NodeID(1),
		To:   trace.NodeID(2),
	}
	return &Scratch{}, sys, id, body
}

func TestScratchSignAllocCeiling(t *testing.T) {
	sc, _, id, body := scratchFixture(t)
	sc.Sign(id, sim.Hour, body) // warm the encode buffer
	allocs := testing.AllocsPerRun(200, func() {
		s := sc.Sign(id, sim.Hour, body)
		if len(s.Sig) == 0 {
			t.Fatal("empty signature")
		}
	})
	// 1 alloc: the fast provider's returned signature. The encode buffer
	// and the last-signature copies are reused across calls.
	if allocs > 1 {
		t.Errorf("Scratch.Sign: %.1f allocs/op, ceiling 1", allocs)
	}
}

// TestScratchVerifyAllocCeiling pins both verify paths: the last
// signature's, and the provider's.
func TestScratchVerifyAllocCeiling(t *testing.T) {
	sc, sys, id, body := scratchFixture(t)
	s := sc.Sign(id, sim.Hour, body)
	other := sign(id, sim.Minute, body)
	allocs := testing.AllocsPerRun(200, func() {
		if !sc.Verify(sys, s) || !sc.Verify(sys, other) {
			t.Fatal("verify failed")
		}
	})
	if allocs != 0 {
		t.Errorf("Scratch.Verify: %.1f allocs/op, ceiling 0", allocs)
	}
}

// TestScratchMatchesPackageSignVerify checks the scratch path signs and
// verifies identically to the unbuffered path: the reference sign, and the
// provider's Verify over a freshly encoded signing input.
func TestScratchMatchesPackageSignVerify(t *testing.T) {
	sc, sys, id, body := scratchFixture(t)
	plain := sign(id, sim.Hour, body)
	scratched := sc.Sign(id, sim.Hour, body)
	if string(plain.Sig) != string(scratched.Sig) {
		t.Error("scratch Sign produced a different signature")
	}
	input := appendSigningInput(nil, id.Node(), sim.Hour, body)
	if !sc.Verify(sys, plain) || !sys.Verify(id.Node(), input, scratched.Sig) || !verify(sys, scratched) {
		t.Error("cross-path verification failed")
	}
	var empty Signed
	if sc.Verify(sys, empty) {
		t.Error("scratch verified an empty envelope")
	}
}
