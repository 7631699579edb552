package wire

import (
	"testing"

	"give2get/internal/g2gcrypto"
	"give2get/internal/sim"
)

// FuzzUnmarshalSigned exercises the envelope decoder with arbitrary bytes.
// Run with `go test -fuzz=FuzzUnmarshalSigned ./internal/wire` for a real
// fuzzing session; under plain `go test` only the seed corpus runs.
func FuzzUnmarshalSigned(f *testing.F) {
	sys, err := g2gcrypto.NewFast(4, 1)
	if err != nil {
		f.Fatal(err)
	}
	id, err := sys.Identity(1)
	if err != nil {
		f.Fatal(err)
	}
	h := g2gcrypto.Hash([]byte("seed"))
	seeds := []Body{
		RelayRequest{Hash: h},
		RelayTransfer{Hash: h, FM: 3, GenAt: sim.Minute, Encrypted: []byte("ct")},
		ProofOfRelay{Hash: h, From: 1, To: 2, DPrime: 3, FM: 4, FBD: 5, Frame: 6},
		Misbehavior{Accused: 2, Reason: ReasonDropped, Evidence: []Signed{
			sign(id, sim.Second, ProofOfRelay{Hash: h, From: 0, To: 1}),
		}},
	}
	for _, body := range seeds {
		f.Add(sign(id, sim.Second, body).Marshal())
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0x00, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := UnmarshalSigned(data)
		if err != nil {
			return
		}
		// Whatever decodes must re-encode and decode to the same envelope.
		again, err := UnmarshalSigned(s.Marshal())
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if again.Signer != s.Signer || again.At != s.At || again.Body.Kind() != s.Body.Kind() {
			t.Fatalf("unstable round trip: %+v vs %+v", again, s)
		}
	})
}
