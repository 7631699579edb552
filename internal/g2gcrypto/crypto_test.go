package g2gcrypto

import (
	"bytes"
	"crypto/rand"
	"errors"
	"testing"
	"testing/quick"

	"give2get/internal/trace"
)

// systems returns one instance of every provider for provider-generic tests.
func systems(t *testing.T, nodes int) map[string]System {
	t.Helper()
	real, err := NewReal(nodes, 42)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := NewFast(nodes, 42)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]System{"real": real, "fast": fast}
}

func TestSignVerify(t *testing.T) {
	for name, sys := range systems(t, 4) {
		t.Run(name, func(t *testing.T) {
			id, err := sys.Identity(1)
			if err != nil {
				t.Fatal(err)
			}
			data := []byte("relay request for H(m)")
			sig := id.Sign(data)
			if !sys.Verify(1, data, sig) {
				t.Error("valid signature rejected")
			}
			if sys.Verify(2, data, sig) {
				t.Error("signature attributed to the wrong node")
			}
			tampered := append([]byte{}, data...)
			tampered[0] ^= 1
			if sys.Verify(1, tampered, sig) {
				t.Error("signature verified over tampered data")
			}
			badSig := append(Signature{}, sig...)
			badSig[0] ^= 1
			if sys.Verify(1, data, badSig) {
				t.Error("tampered signature accepted")
			}
		})
	}
}

func TestSealOpen(t *testing.T) {
	for name, sys := range systems(t, 4) {
		t.Run(name, func(t *testing.T) {
			plaintext := []byte("sender=2 msgid=7 body=hello")
			box, err := sys.SealFor(3, plaintext)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Contains(box, plaintext) {
				t.Error("sealed blob leaks the plaintext")
			}
			dest, err := sys.Identity(3)
			if err != nil {
				t.Fatal(err)
			}
			got, err := dest.Open(box)
			if err != nil {
				t.Fatalf("destination cannot open: %v", err)
			}
			if !bytes.Equal(got, plaintext) {
				t.Errorf("Open = %q, want %q", got, plaintext)
			}
			// A relay (any non-destination) must fail to open.
			relay, err := sys.Identity(1)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := relay.Open(box); err == nil {
				t.Error("non-destination opened the sealed blob")
			}
			// Corruption must be detected.
			box[len(box)-1] ^= 1
			if _, err := dest.Open(box); !errors.Is(err, ErrBadCiphertext) {
				t.Errorf("corrupted blob: err = %v, want ErrBadCiphertext", err)
			}
		})
	}
}

func TestSealOpenEmptyAndLarge(t *testing.T) {
	for name, sys := range systems(t, 2) {
		t.Run(name, func(t *testing.T) {
			id, err := sys.Identity(0)
			if err != nil {
				t.Fatal(err)
			}
			for _, size := range []int{0, 1, 31, 32, 33, 4096} {
				plaintext := bytes.Repeat([]byte{0xAB}, size)
				box, err := sys.SealFor(0, plaintext)
				if err != nil {
					t.Fatalf("seal %d bytes: %v", size, err)
				}
				got, err := id.Open(box)
				if err != nil {
					t.Fatalf("open %d bytes: %v", size, err)
				}
				if !bytes.Equal(got, plaintext) {
					t.Errorf("roundtrip %d bytes failed", size)
				}
			}
		})
	}
}

func TestUnknownNodeErrors(t *testing.T) {
	for name, sys := range systems(t, 2) {
		t.Run(name, func(t *testing.T) {
			if _, err := sys.Identity(9); !errors.Is(err, ErrUnknownNode) {
				t.Errorf("Identity(9): %v", err)
			}
			if _, err := sys.SealFor(trace.NodeID(-1), []byte("x")); !errors.Is(err, ErrUnknownNode) {
				t.Errorf("SealFor(-1): %v", err)
			}
			if sys.Verify(9, []byte("x"), Signature("y")) {
				t.Error("Verify for unknown node returned true")
			}
		})
	}
	if _, err := NewReal(0, 1); err == nil {
		t.Error("NewReal(0) accepted")
	}
	if _, err := NewFast(-1, 0); err == nil {
		t.Error("NewFast(-1) accepted")
	}
}

func TestFastDeterministic(t *testing.T) {
	a, err := NewFast(3, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewFast(3, 7)
	if err != nil {
		t.Fatal(err)
	}
	idA, _ := a.Identity(2)
	idB, _ := b.Identity(2)
	if !bytes.Equal(idA.Sign([]byte("x")), idB.Sign([]byte("x"))) {
		t.Error("same seed produced different signing secrets")
	}
	c, err := NewFast(3, 8)
	if err != nil {
		t.Fatal(err)
	}
	idC, _ := c.Identity(2)
	if bytes.Equal(idA.Sign([]byte("x")), idC.Sign([]byte("x"))) {
		t.Error("different seeds produced identical signing secrets")
	}
}

// TestRealDeterministic: the real provider draws its keys, seal ephemerals
// and nonces from one stream seeded by its seed, so two providers built with
// one seed sign and seal identically call for call, and another seed does
// not.
func TestRealDeterministic(t *testing.T) {
	trail := func(seed int64) [][]byte {
		sys, err := NewReal(3, seed)
		if err != nil {
			t.Fatal(err)
		}
		id, err := sys.Identity(2)
		if err != nil {
			t.Fatal(err)
		}
		out := [][]byte{id.Sign([]byte("x"))}
		for i := 0; i < 3; i++ {
			box, err := sys.SealFor(trace.NodeID(i), []byte("m"))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, box)
		}
		return out
	}
	a, b, c := trail(7), trail(7), trail(8)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Errorf("output %d differs under one seed", i)
		}
		if bytes.Equal(a[i], c[i]) {
			t.Errorf("output %d is the same under two seeds", i)
		}
	}
}

func TestPayloadEncryptDecrypt(t *testing.T) {
	var key SessionKey
	if _, err := rand.Read(key[:]); err != nil {
		t.Fatal(err)
	}
	msg := []byte("the message m, handed over before the key is revealed")
	box, err := EncryptPayload(key, msg, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(box, msg) {
		t.Error("payload encryption leaks plaintext")
	}
	got, err := DecryptPayload(key, box)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Error("payload roundtrip failed")
	}
	var wrong SessionKey
	if _, err := DecryptPayload(wrong, box); !errors.Is(err, ErrBadCiphertext) {
		t.Errorf("wrong key: err = %v, want ErrBadCiphertext", err)
	}
	if _, err := DecryptPayload(key, box[:4]); !errors.Is(err, ErrBadCiphertext) {
		t.Errorf("truncated: err = %v, want ErrBadCiphertext", err)
	}
}

// TestEncryptedSize pins the payload framing the relay phase charges a
// refused RELAY by without encrypting: the output is EncryptedSize bytes,
// and the nonce is the first PayloadNonceSize bytes of the randomness, read
// in one piece.
func TestEncryptedSize(t *testing.T) {
	var key SessionKey
	for _, n := range []int{0, 1, 100, 4097} {
		r := &countingReader{}
		box, err := EncryptPayload(key, make([]byte, n), r)
		if err != nil {
			t.Fatal(err)
		}
		if len(box) != EncryptedSize(n) {
			t.Errorf("%d-byte payload encrypted to %d bytes, EncryptedSize says %d", n, len(box), EncryptedSize(n))
		}
		if r.reads != 1 || r.bytes != PayloadNonceSize {
			t.Errorf("%d-byte payload read %d bytes in %d reads, want %d in 1", n, r.bytes, r.reads, PayloadNonceSize)
		}
	}
}

// countingReader is a zero-byte randomness source that counts its reads.
type countingReader struct{ reads, bytes int }

func (r *countingReader) Read(p []byte) (int, error) {
	r.reads++
	r.bytes += len(p)
	clear(p)
	return len(p), nil
}

func TestHeavyHMAC(t *testing.T) {
	msg := []byte("message under challenge")
	seed := []byte("random seed s")
	resp := HeavyHMAC(msg, seed, 100)
	if HeavyHMAC(msg, seed, 100) != resp {
		t.Error("HeavyHMAC is not deterministic")
	}
	if HeavyHMAC(msg, []byte("other seed"), 100) == resp {
		t.Error("same response under a different seed")
	}
	if HeavyHMAC(msg, seed, 101) == resp {
		t.Error("same response under a different iteration count")
	}
	if HeavyHMAC([]byte("other message"), seed, 100) == resp {
		t.Error("same response over a different message")
	}
	// iterations < 1 is clamped, not a panic.
	if HeavyHMAC(msg, seed, 0) != HeavyHMAC(msg, seed, 1) {
		t.Error("iteration clamp broken")
	}
}

func TestHashStable(t *testing.T) {
	if Hash([]byte("a")) == Hash([]byte("b")) {
		t.Error("distinct inputs collided")
	}
	if Hash([]byte("a")) != Hash([]byte("a")) {
		t.Error("hash not deterministic")
	}
}

// Property: for both providers, signatures verify for the signer and sealing
// round-trips for arbitrary plaintexts.
func TestProvidersRoundTripProperty(t *testing.T) {
	real, err := NewReal(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := NewFast(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, sys := range map[string]System{"real": real, "fast": fast} {
		sys := sys
		t.Run(name, func(t *testing.T) {
			property := func(data []byte, node uint8) bool {
				n := trace.NodeID(node % 3)
				id, err := sys.Identity(n)
				if err != nil {
					return false
				}
				if !sys.Verify(n, data, id.Sign(data)) {
					return false
				}
				box, err := sys.SealFor(n, data)
				if err != nil {
					return false
				}
				got, err := id.Open(box)
				if err != nil {
					return false
				}
				return bytes.Equal(got, data)
			}
			cfg := &quick.Config{MaxCount: 25}
			if err := quick.Check(property, cfg); err != nil {
				t.Error(err)
			}
		})
	}
}
