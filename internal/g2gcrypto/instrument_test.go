package g2gcrypto

import (
	"bytes"
	"errors"
	"testing"

	"give2get/internal/obs"
)

func TestInstrumentTransparent(t *testing.T) {
	plain, err := NewFast(4, 42)
	if err != nil {
		t.Fatal(err)
	}
	var st obs.CryptoStats
	sys := Instrument(plain, &st)

	if sys.Name() != plain.Name() || sys.Nodes() != plain.Nodes() {
		t.Fatal("wrapper changed Name/Nodes")
	}
	if got := st.Provider(); got != plain.Name() {
		t.Fatalf("provider = %q, want %q", got, plain.Name())
	}

	id, err := sys.Identity(1)
	if err != nil {
		t.Fatal(err)
	}
	// One wrapper per node, as the System contract requires: wire.Scratch
	// compares identities to answer a verify from its memo.
	if again, err := sys.Identity(1); err != nil || again != id {
		t.Fatalf("second Identity(1) = %v, %v; want the first wrapper", again, err)
	}
	if _, err := sys.Identity(4); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("Identity(4) of 4 nodes: err = %v, want ErrUnknownNode", err)
	}
	data := []byte("payload")
	sig := id.Sign(data)
	if !sys.Verify(1, data, sig) {
		t.Fatal("instrumented signature does not verify")
	}
	// The wrapped signature must equal the plain provider's byte-for-byte
	// (instrumentation must not perturb determinism).
	plainID, err := plain.Identity(1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sig, plainID.Sign(data)) {
		t.Fatal("instrumented Sign differs from plain Sign")
	}

	box, err := sys.SealFor(2, data)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := sys.Identity(2)
	if err != nil {
		t.Fatal(err)
	}
	opened, err := id2.Open(box)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(opened, data) {
		t.Fatal("seal/open roundtrip failed")
	}

	if st.Sign.Count() != 1 || st.Verify.Count() != 1 || st.Seal.Count() != 1 || st.Open.Count() != 1 {
		t.Fatalf("op counts: sign=%d verify=%d seal=%d open=%d, want 1 each",
			st.Sign.Count(), st.Verify.Count(), st.Seal.Count(), st.Open.Count())
	}
}

func TestInstrumentNilStats(t *testing.T) {
	plain, err := NewFast(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := Instrument(plain, nil); got != plain {
		t.Fatal("nil stats should return the system unchanged")
	}
}
