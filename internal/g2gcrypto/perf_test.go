package g2gcrypto

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"testing"

	"give2get/internal/trace"
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

// TestFastSignMemoAllocCeiling: a memo hit copies the memo's MAC into the
// signature arena, whose one chunk per 32 signatures the whole-number
// average of AllocsPerRun reports as 0, as for Sign.
func TestFastSignMemoAllocCeiling(t *testing.T) {
	_, id := fastProvider(t)
	data := bytes.Repeat([]byte{0x5A}, 96)
	var m SignMemo
	id.SignMemo(&m, data)
	allocs := testing.AllocsPerRun(200, func() {
		if len(id.SignMemo(&m, data)) != sha256.Size {
			t.Fatal("bad signature length")
		}
	})
	if allocs != 0 {
		t.Errorf("fast SignMemo hit: %.1f allocs/op, ceiling 0", allocs)
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

// TestFastVerifyMemo pins the last-signature memo: a hit must answer exactly
// as a recomputation would, and anything but the same signer over the same
// bytes must miss. Node 1 signs; hit says whether Verify then finds the memo
// holding its signer and input, so both paths are exercised.
func TestFastVerifyMemo(t *testing.T) {
	data := []byte("RELAY_RQST signing input")
	cases := []struct {
		name      string
		claimed   trace.NodeID // the signer Verify is told
		flipInput bool         // flip a byte of the verified input
		flipSig   bool         // flip a byte of the returned signature in place
		signLater bool         // sign other inputs before verifying
		hit, want bool
	}{
		{name: "verify right after its sign", claimed: 1, hit: true, want: true},
		{name: "same bytes under another claimed signer", claimed: 2},
		{name: "one flipped input byte", claimed: 1, flipInput: true},
		{name: "returned signature flipped in place", claimed: 1, flipSig: true, hit: true},
		{name: "earlier signature after later signs", claimed: 1, signLater: true, want: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := NewFast(4, 1)
			if err != nil {
				t.Fatal(err)
			}
			input := append([]byte(nil), data...)
			sig := mustIdentity(t, sys, 1).Sign(input)
			if tc.flipInput {
				input[3] ^= 0x01
			}
			if tc.flipSig {
				sig[0] ^= 0x01
			}
			if tc.signLater {
				mustIdentity(t, sys, 2).Sign([]byte("RELAY_DECLINE"))
				mustIdentity(t, sys, 1).Sign([]byte("KEY"))
			}
			fs := sys.(*fastSystem)
			if hit := fs.last.holds(fs.identities[tc.claimed], input); hit != tc.hit {
				t.Fatalf("memo hit = %v, want %v", hit, tc.hit)
			}
			if got := sys.Verify(tc.claimed, input, sig); got != tc.want {
				t.Errorf("Verify = %v, want %v", got, tc.want)
			}
		})
	}
}

// FuzzFastVerifyMemo checks that a provider that has just signed answers
// every verify exactly as a fresh provider with the same seed, whose memo is
// empty, does. mutate%5 picks what the verifier is shown: the signed input
// unchanged, a flipped input byte, a flipped signature byte (in the returned
// slice, so the memo must hold its own copy), another claimed signer, or the
// signature checked after a later sign has replaced the memo.
func FuzzFastVerifyMemo(f *testing.F) {
	f.Add(uint8(1), []byte("relay request"), uint8(0), uint16(0))
	f.Add(uint8(0), []byte{}, uint8(1), uint16(3))
	f.Add(uint8(3), []byte{0xff, 0x00}, uint8(2), uint16(31))
	f.Add(uint8(2), []byte("decline"), uint8(3), uint16(1))
	f.Add(uint8(1), bytes.Repeat([]byte{0x5a}, 200), uint8(4), uint16(7))

	f.Fuzz(func(t *testing.T, signer uint8, input []byte, mutate uint8, pos uint16) {
		const nodes = 4
		sys, err := NewFast(nodes, 9)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := NewFast(nodes, 9)
		if err != nil {
			t.Fatal(err)
		}
		who := trace.NodeID(signer % nodes)
		input = append([]byte(nil), input...)
		sig := mustIdentity(t, sys, who).Sign(input)
		claimed := who
		switch mutate % 5 {
		case 1:
			if len(input) == 0 {
				input = append(input, 0)
			} else {
				input[int(pos)%len(input)] ^= 0x01
			}
		case 2:
			sig[int(pos)%len(sig)] ^= 0x01
		case 3:
			claimed = (who + 1 + trace.NodeID(pos%(nodes-1))) % nodes
		case 4:
			mustIdentity(t, sys, (who+1)%nodes).Sign(append(input, 0))
		}
		got := sys.Verify(claimed, input, sig)
		if want := fresh.Verify(claimed, input, sig); got != want {
			t.Fatalf("mutation %d: memo Verify = %v, fresh provider = %v", mutate%5, got, want)
		}
		if honest := mutate%5 == 0 || mutate%5 == 4; got != honest {
			t.Fatalf("mutation %d: Verify = %v, want %v", mutate%5, got, honest)
		}
	})
}

// TestSignMemo pins the caller-held signature memo: a repeat by the same
// identity over byte-equal input answers from the memo, anything else
// recomputes and refills it, and every answer equals a fresh provider's.
// Node 1 fills the memo over a copy of base (unless empty), then the signer
// signs input, or that very copy with one byte flipped in place; hit says
// whether the memo holds that identity and input beforehand, so both paths
// are exercised.
func TestSignMemo(t *testing.T) {
	base := []byte("FQ_RESP signing input")
	cases := []struct {
		name     string
		empty    bool // leave the memo at its zero value
		flipHit  bool // flip the slice an earlier hit returned, in place
		flipFill bool // sign the slice the memo was filled from, one byte flipped
		signer   trace.NodeID
		input    []byte
		hit      bool
	}{
		{name: "repeat", signer: 1, input: base, hit: true},
		{name: "one flipped input byte", signer: 1, flipFill: true},
		{name: "different input length", signer: 1, input: base[:len(base)-1]},
		{name: "input longer than the memo buffer", signer: 1,
			input: append(append([]byte(nil), base...), bytes.Repeat([]byte{0xA5}, 200)...)},
		{name: "memo filled by another identity", signer: 2, input: base},
		{name: "returned signature flipped after a hit", flipHit: true, signer: 1, input: base, hit: true},
		{name: "zero memo over empty input", empty: true, signer: 1, input: []byte{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := NewFast(4, 1)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := NewFast(4, 1)
			if err != nil {
				t.Fatal(err)
			}
			var m SignMemo
			filled := append([]byte(nil), base...)
			if !tc.empty {
				mustIdentity(t, sys, 1).SignMemo(&m, filled)
			}
			input := tc.input
			if tc.flipFill {
				filled[4] ^= 0x01
				input = filled
			}
			if tc.flipHit {
				sig := mustIdentity(t, sys, 1).SignMemo(&m, base)
				sig[0] ^= 0x01
			}
			// Another signature takes over the last-signature memo, so the
			// verify below hits it only if the memo sign refreshed it.
			mustIdentity(t, sys, 3).Sign([]byte("RELAY_OK"))

			fs := sys.(*fastSystem)
			id := fs.identities[tc.signer]
			if hit := m.holds(id, input); hit != tc.hit {
				t.Fatalf("memo hit = %v, want %v", hit, tc.hit)
			}
			sig := id.SignMemo(&m, input)
			if want := mustIdentity(t, fresh, tc.signer).Sign(input); !bytes.Equal(sig, want) {
				t.Fatalf("SignMemo = %x, fresh provider signs %x", sig, want)
			}
			if !m.holds(id, input) {
				t.Error("memo does not hold the signature it just returned")
			}
			if !fs.last.holds(id, input) {
				t.Error("the sign did not refresh the last-signature memo")
			}
			if !sys.Verify(tc.signer, input, sig) {
				t.Error("Verify rejected the memo signature")
			}
		})
	}
}

// FuzzSignMemo checks that signing through a memo answers exactly as a fresh
// provider with the same seed, whose memos are empty, does. Node who fills
// the memo over input; mutate%6 then picks the next sign through it: the
// same bytes, a byte flipped in the caller's slice (so the memo must hold
// its own copy of the input), a shorter input, an input longer than the
// memo's buffer, another signer, or the same bytes after the caller flipped
// the signature a hit returned (so the memo must hold its own MAC).
func FuzzSignMemo(f *testing.F) {
	f.Add(uint8(1), []byte("relay request"), uint8(0), uint16(0))
	f.Add(uint8(0), []byte{}, uint8(1), uint16(3))
	f.Add(uint8(3), []byte{0xff, 0x00}, uint8(2), uint16(31))
	f.Add(uint8(2), []byte("decline"), uint8(3), uint16(1))
	f.Add(uint8(1), bytes.Repeat([]byte{0x5a}, 200), uint8(4), uint16(7))
	f.Add(uint8(2), []byte("fq response"), uint8(5), uint16(9))
	f.Add(uint8(1), []byte("fq request"), uint8(1), uint16(5))

	f.Fuzz(func(t *testing.T, signer uint8, input []byte, mutate uint8, pos uint16) {
		const nodes = 4
		sys, err := NewFast(nodes, 9)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := NewFast(nodes, 9)
		if err != nil {
			t.Fatal(err)
		}
		who := trace.NodeID(signer % nodes)
		input = append([]byte(nil), input...)
		var m SignMemo
		first := mustIdentity(t, sys, who).SignMemo(&m, input)
		if want := mustIdentity(t, fresh, who).Sign(input); !bytes.Equal(first, want) {
			t.Fatalf("first SignMemo = %x, fresh provider signs %x", first, want)
		}
		next := who
		switch mutate % 6 {
		case 1:
			if len(input) == 0 {
				input = append(input, 0)
			} else {
				input[int(pos)%len(input)] ^= 0x01
			}
		case 2:
			input = input[:len(input)/2]
		case 3:
			input = append(input, bytes.Repeat([]byte{byte(pos)}, 1+int(pos%300))...)
		case 4:
			next = (who + 1 + trace.NodeID(pos%(nodes-1))) % nodes
		case 5:
			hit := mustIdentity(t, sys, who).SignMemo(&m, input)
			hit[int(pos)%len(hit)] ^= 0x01
		}
		want := mustIdentity(t, fresh, next).Sign(input)
		for i := 0; i < 2; i++ { // the second sign is a repeat of the first
			got := mustIdentity(t, sys, next).SignMemo(&m, input)
			if !bytes.Equal(got, want) {
				t.Fatalf("mutation %d, sign %d: SignMemo = %x, fresh provider signs %x", mutate%6, i, got, want)
			}
			if !sys.Verify(next, input, got) {
				t.Fatalf("mutation %d, sign %d: Verify rejected the signature", mutate%6, i)
			}
		}
	})
}

// mustIdentity returns node n's identity from sys.
func mustIdentity(t *testing.T, sys System, n trace.NodeID) Identity {
	t.Helper()
	id, err := sys.Identity(n)
	if err != nil {
		t.Fatal(err)
	}
	return id
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
