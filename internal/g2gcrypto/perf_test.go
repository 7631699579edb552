package g2gcrypto

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"testing"
)

// referenceHeavyHMAC is the straightforward hmac.New-per-round construction
// the optimized HeavyHMAC must stay bit-compatible with. Heavy-HMAC
// responses are part of the audited wire protocol, so any drift here changes
// test-phase outcomes and audit digests.
func referenceHeavyHMAC(message, seed []byte, iterations int) Digest {
	if iterations < 1 {
		iterations = 1
	}
	mac := hmac.New(sha256.New, seed)
	mac.Write(message)
	sum := mac.Sum(nil)
	var round [8]byte
	for i := 1; i < iterations; i++ {
		binary.LittleEndian.PutUint64(round[:], uint64(i))
		mac := hmac.New(sha256.New, sum)
		mac.Write(round[:])
		mac.Write(message)
		sum = mac.Sum(nil)
	}
	var out Digest
	copy(out[:], sum)
	return out
}

func TestHeavyHMACMatchesReference(t *testing.T) {
	longSeed := bytes.Repeat([]byte("seed material "), 10) // > one SHA-256 block
	cases := []struct {
		name       string
		msg, seed  []byte
		iterations int
	}{
		{"one-iteration", []byte("m"), []byte("s"), 1},
		{"clamped", []byte("m"), []byte("s"), 0},
		{"typical", []byte("a longer message body for the storage proof"), []byte("challenge-seed"), 64},
		{"empty-message", nil, []byte("s"), 16},
		{"empty-seed", []byte("m"), nil, 16},
		{"long-seed", []byte("m"), longSeed, 16},
		{"default-iterations", bytes.Repeat([]byte{0xC3}, 256), []byte("seed"), 1024},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := HeavyHMAC(tc.msg, tc.seed, tc.iterations)
			want := referenceHeavyHMAC(tc.msg, tc.seed, tc.iterations)
			if got != want {
				t.Errorf("HeavyHMAC diverged from the hmac.New reference:\n got %x\nwant %x", got, want)
			}
		})
	}
}

// TestHMACScratchMatchesReference is the metamorphic pin for the reusable
// scratch: a single scratch reused across calls of random shapes must stay
// bit-identical to both the package-level HeavyHMAC and the hmac.New
// reference. Reuse is the point — state leaking between calls is exactly the
// bug class a reused scratch can introduce.
func TestHMACScratchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var scratch HMACScratch
	for i := 0; i < 200; i++ {
		// Lengths hover around the SHA-256 block (64) and output (32)
		// boundaries, where padding and key-hashing behavior changes.
		msg := make([]byte, rng.Intn(160))
		seed := make([]byte, rng.Intn(96))
		rng.Read(msg)
		rng.Read(seed)
		iterations := 1 + rng.Intn(8)

		got := scratch.HeavyHMAC(msg, seed, iterations)
		if want := referenceHeavyHMAC(msg, seed, iterations); got != want {
			t.Fatalf("case %d (len(msg)=%d len(seed)=%d iters=%d): scratch diverged from hmac.New:\n got %x\nwant %x",
				i, len(msg), len(seed), iterations, got, want)
		}
		if want := HeavyHMAC(msg, seed, iterations); got != want {
			t.Fatalf("case %d: scratch diverged from the package function", i)
		}
	}
}

// fastProvider returns a fast system and one identity for allocation tests.
func fastProvider(t *testing.T) (System, Identity) {
	t.Helper()
	sys, err := NewFast(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	id, err := sys.Identity(1)
	if err != nil {
		t.Fatal(err)
	}
	return sys, id
}

// The ceilings below pin the fast provider's steady-state allocation
// behavior after the persistent-HMAC-state rewrite. They are exact current
// values, asserted as maxima so a regression fails loudly while a further
// improvement does not.

func TestFastSignAllocCeiling(t *testing.T) {
	_, id := fastProvider(t)
	data := bytes.Repeat([]byte{0x5A}, 96)
	allocs := testing.AllocsPerRun(200, func() {
		if len(id.Sign(data)) != sha256.Size {
			t.Fatal("bad signature length")
		}
	})
	// 1 alloc: the returned signature, retained by the caller.
	if allocs > 1 {
		t.Errorf("fast Sign: %.1f allocs/op, ceiling 1", allocs)
	}
}

func TestFastVerifyAllocCeiling(t *testing.T) {
	sys, id := fastProvider(t)
	data := bytes.Repeat([]byte{0x5A}, 96)
	sig := id.Sign(data)
	allocs := testing.AllocsPerRun(200, func() {
		if !sys.Verify(1, data, sig) {
			t.Fatal("verify failed")
		}
	})
	if allocs != 0 {
		t.Errorf("fast Verify: %.1f allocs/op, ceiling 0", allocs)
	}
}

func TestFastSealOpenAllocCeilings(t *testing.T) {
	sys, id := fastProvider(t)
	plaintext := bytes.Repeat([]byte{0x7E}, 128)
	sealAllocs := testing.AllocsPerRun(200, func() {
		if _, err := sys.SealFor(1, plaintext); err != nil {
			t.Fatal(err)
		}
	})
	// 1 alloc: the returned sealed blob.
	if sealAllocs > 1 {
		t.Errorf("fast SealFor: %.1f allocs/op, ceiling 1", sealAllocs)
	}
	box, err := sys.SealFor(1, plaintext)
	if err != nil {
		t.Fatal(err)
	}
	openAllocs := testing.AllocsPerRun(200, func() {
		got, err := id.Open(box)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, plaintext) {
			t.Fatal("roundtrip failed")
		}
	})
	// 1 alloc: the returned plaintext.
	if openAllocs > 1 {
		t.Errorf("fast Open: %.1f allocs/op, ceiling 1", openAllocs)
	}
}

func TestHeavyHMACAllocCeiling(t *testing.T) {
	msg := bytes.Repeat([]byte{0xC3}, 256)
	seed := []byte("challenge-seed")
	allocs := testing.AllocsPerRun(20, func() {
		HeavyHMAC(msg, seed, 256)
	})
	// The two reusable SHA-256 states; everything else lives on the stack.
	// The old hmac.New-per-round loop cost ~4 allocs per iteration.
	if allocs > 4 {
		t.Errorf("HeavyHMAC: %.1f allocs/op, ceiling 4", allocs)
	}
}
