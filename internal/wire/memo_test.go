package wire

import (
	"bytes"
	"testing"

	"give2get/internal/g2gcrypto"
	"give2get/internal/obs"
	"give2get/internal/sim"
	"give2get/internal/trace"
)

// providers are the crypto providers a scratch's memos serve.
var providers = []struct {
	name   string
	newSys func(nodes int, seed int64) (g2gcrypto.System, error)
}{
	{"fast", g2gcrypto.NewFast},
	{"real", g2gcrypto.NewReal},
}

// memoNodes is the population of the memo tests' systems.
const memoNodes = 4

func newProvider(t testing.TB, newSys func(int, int64) (g2gcrypto.System, error), seed int64) g2gcrypto.System {
	t.Helper()
	sys, err := newSys(memoNodes, seed)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func identityOf(t testing.TB, sys g2gcrypto.System, n trace.NodeID) g2gcrypto.Identity {
	t.Helper()
	id, err := sys.Identity(n)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// memoBody is a statement whose signing input carries payload: a RELAY with
// payload as its ciphertext, which the envelope shares rather than copies.
func memoBody(payload []byte) Body {
	return RelayTransfer{Hash: g2gcrypto.Hash([]byte("m")), FM: 3, Encrypted: payload}
}

// freshVerify is what a provider with no memo anywhere above it answers for
// s: sys's own Verify over the envelope's signing input.
func freshVerify(sys g2gcrypto.System, s Signed) bool {
	return sys.Verify(s.Signer, appendSigningInput(nil, s.Signer, s.At, s.Body), s.Sig)
}

// TestSignMemo pins the caller-held signature memo under both providers: a
// repeat by the same identity over byte-equal signing input answers from
// the memo, anything else asks the provider and refills it, and every
// answer equals a fresh provider's. Node 1 fills the memo over a copy of
// base (unless empty), then the signer signs a body carrying input, or that
// very copy with one byte flipped in place; hit says whether the memo holds
// that identity and input beforehand, so both paths are exercised. A hit is
// the one sign the scratch charges to its stats: the bare provider below
// charges none.
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
			for _, p := range providers {
				t.Run(p.name, func(t *testing.T) {
					sys, fresh := newProvider(t, p.newSys, 1), newProvider(t, p.newSys, 1)
					var st obs.CryptoStats
					sc := Scratch{Stats: &st}
					var m SignMemo
					filled := append([]byte(nil), base...)
					if !tc.empty {
						sc.SignMemo(identityOf(t, sys, 1), &m, sim.Second, memoBody(filled))
					}
					input := tc.input
					if tc.flipFill {
						filled[4] ^= 0x01
						input = filled
					}
					if tc.flipHit {
						s := sc.SignMemo(identityOf(t, sys, 1), &m, sim.Second, memoBody(base))
						s.Sig[0] ^= 0x01
					}
					// Another signature takes over the last signature, so the
					// verify below hits it only if the memo sign refreshed it.
					sc.Sign(identityOf(t, sys, 3), sim.Second, RelayOK{})

					signs, verifies := st.Sign.Count(), st.Verify.Count()
					s := sc.SignMemo(identityOf(t, sys, tc.signer), &m, sim.Second, memoBody(input))
					if hit := st.Sign.Count() > signs; hit != tc.hit {
						t.Fatalf("memo hit = %v, want %v", hit, tc.hit)
					}
					if want := sign(identityOf(t, fresh, tc.signer), sim.Second, memoBody(input)); !bytes.Equal(s.Sig, want.Sig) {
						t.Fatalf("SignMemo = %x, fresh provider signs %x", s.Sig, want.Sig)
					}
					if !sc.Verify(sys, s) || st.Verify.Count() != verifies+1 {
						t.Error("the verify that follows the sign did not hit the last signature")
					}
					signs = st.Sign.Count()
					if again := sc.SignMemo(identityOf(t, sys, tc.signer), &m, sim.Second, memoBody(input)); !bytes.Equal(again.Sig, s.Sig) || st.Sign.Count() != signs+1 {
						t.Error("the memo does not hold the signature it just returned")
					}
				})
			}
		})
	}
}

// TestVerifyMemo pins the last-signature memo under both providers: it
// answers true only for the verifying System's own identity's last
// signature over byte-equal input with byte-equal signature bytes; anything
// else asks the provider, which decides, even where the memo's answer would
// have been the same. Node 1 signs; hit says whether the verify is answered
// by the memo, which is the one verify the scratch charges to its stats.
func TestVerifyMemo(t *testing.T) {
	cases := []struct {
		name      string
		claimed   trace.NodeID // the signer the envelope names
		flipInput bool         // flip a byte of the signed payload in place
		flipSig   bool         // flip a byte of the returned signature in place
		signLater bool         // sign other statements before verifying
		otherSeed int64        // sign with another System's node 1, of this seed
		hit, want bool
	}{
		{name: "verify right after its sign", claimed: 1, hit: true, want: true},
		{name: "same bytes under another claimed signer", claimed: 2},
		{name: "one flipped input byte", claimed: 1, flipInput: true},
		{name: "returned signature flipped in place", claimed: 1, flipSig: true},
		{name: "earlier signature after later signs", claimed: 1, signLater: true, want: true},
		{name: "another System's identity", claimed: 1, otherSeed: 2},
		{name: "another System with the same keys", claimed: 1, otherSeed: 1, want: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, p := range providers {
				t.Run(p.name, func(t *testing.T) {
					sys := newProvider(t, p.newSys, 1)
					signer := identityOf(t, sys, 1)
					if tc.otherSeed != 0 {
						signer = identityOf(t, newProvider(t, p.newSys, tc.otherSeed), 1)
					}
					var st obs.CryptoStats
					sc := Scratch{Stats: &st}
					payload := []byte("RELAY_RQST payload")
					s := sc.Sign(signer, sim.Second, memoBody(payload))
					s.Signer = tc.claimed
					if tc.flipInput {
						payload[3] ^= 0x01
					}
					if tc.flipSig {
						s.Sig[0] ^= 0x01
					}
					if tc.signLater {
						sc.Sign(identityOf(t, sys, 2), sim.Second, RelayDecline{})
						sc.Sign(identityOf(t, sys, 1), sim.Second, KeyReveal{})
					}
					got := sc.Verify(sys, s)
					if hit := st.Verify.Count() == 1; hit != tc.hit {
						t.Fatalf("memo hit = %v, want %v", hit, tc.hit)
					}
					if got != tc.want || got != freshVerify(sys, s) {
						t.Errorf("Verify = %v, want %v as the provider answers", got, tc.want)
					}
				})
			}
		})
	}
}

// TestSignMemoAllocCeiling: a memo hit copies the memo's signature into the
// scratch's arena, whose one chunk per 64 fast or 32 real signatures the
// whole-number average of AllocsPerRun reports as 0.
func TestSignMemoAllocCeiling(t *testing.T) {
	for _, p := range providers {
		t.Run(p.name, func(t *testing.T) {
			sys := newProvider(t, p.newSys, 1)
			id := identityOf(t, sys, 1)
			var body Body = memoBody(bytes.Repeat([]byte{0x5A}, 96))
			var sc Scratch
			var m SignMemo
			sc.SignMemo(id, &m, sim.Second, body)
			allocs := testing.AllocsPerRun(200, func() {
				if s := sc.SignMemo(id, &m, sim.Second, body); len(s.Sig) == 0 {
					t.Fatal("empty signature")
				}
			})
			if allocs != 0 {
				t.Errorf("SignMemo hit: %.1f allocs/op, ceiling 0", allocs)
			}
		})
	}
}

// FuzzSignMemo checks that signing through a memo answers exactly as a
// fresh provider with the same seed, under no memo, does. provider picks
// the fast or the real provider. Node who fills the memo over a body
// carrying payload; mutate%7 then picks the next sign through it: the same
// bytes, a byte flipped in the caller's payload (so the memo must hold its
// own copy of the input), a shorter payload, a payload longer than the
// memo's buffer, another signer, the same bytes after the caller flipped
// the signature a hit returned (so the memo must hold its own signature),
// or another instant.
func FuzzSignMemo(f *testing.F) {
	f.Add(uint8(0), uint8(1), []byte("relay request"), uint8(0), uint16(0))
	f.Add(uint8(1), uint8(0), []byte{}, uint8(1), uint16(3))
	f.Add(uint8(0), uint8(3), []byte{0xff, 0x00}, uint8(2), uint16(31))
	f.Add(uint8(1), uint8(2), []byte("decline"), uint8(3), uint16(1))
	f.Add(uint8(0), uint8(1), bytes.Repeat([]byte{0x5a}, 200), uint8(4), uint16(7))
	f.Add(uint8(1), uint8(2), []byte("fq response"), uint8(5), uint16(9))
	f.Add(uint8(0), uint8(1), []byte("fq request"), uint8(6), uint16(5))

	f.Fuzz(func(t *testing.T, provider, signer uint8, payload []byte, mutate uint8, pos uint16) {
		p := providers[int(provider)%len(providers)]
		sys, fresh := newProvider(t, p.newSys, 9), newProvider(t, p.newSys, 9)
		who := trace.NodeID(signer % memoNodes)
		payload = append([]byte(nil), payload...)
		var sc Scratch
		var m SignMemo
		first := sc.SignMemo(identityOf(t, sys, who), &m, sim.Second, memoBody(payload))
		if want := sign(identityOf(t, fresh, who), sim.Second, memoBody(payload)); !bytes.Equal(first.Sig, want.Sig) {
			t.Fatalf("first SignMemo = %x, fresh provider signs %x", first.Sig, want.Sig)
		}
		next, at := who, sim.Second
		switch mutate % 7 {
		case 1:
			if len(payload) == 0 {
				payload = append(payload, 0)
			} else {
				payload[int(pos)%len(payload)] ^= 0x01
			}
		case 2:
			payload = payload[:len(payload)/2]
		case 3:
			payload = append(payload, bytes.Repeat([]byte{byte(pos)}, 1+int(pos%300))...)
		case 4:
			next = (who + 1 + trace.NodeID(pos%(memoNodes-1))) % memoNodes
		case 5:
			hit := sc.SignMemo(identityOf(t, sys, who), &m, sim.Second, memoBody(payload))
			hit.Sig[int(pos)%len(hit.Sig)] ^= 0x01
		case 6:
			at += sim.Time(1 + pos)
		}
		want := sign(identityOf(t, fresh, next), at, memoBody(payload))
		for i := 0; i < 2; i++ { // the second sign is a repeat of the first
			got := sc.SignMemo(identityOf(t, sys, next), &m, at, memoBody(payload))
			if !bytes.Equal(got.Sig, want.Sig) {
				t.Fatalf("mutation %d, sign %d: SignMemo = %x, fresh provider signs %x", mutate%7, i, got.Sig, want.Sig)
			}
			if !sc.Verify(sys, got) {
				t.Fatalf("mutation %d, sign %d: Verify rejected the signature", mutate%7, i)
			}
		}
	})
}

// FuzzVerifyMemo checks that a scratch that has just signed answers every
// verify exactly as a fresh provider with the same seed does over a freshly
// encoded input, with no memo. provider picks the fast or the real provider. mutate%6 picks what
// the verifier is shown: the signed envelope unchanged, a flipped payload
// byte, a flipped signature byte (in the returned slice, so the memo must
// hold its own copy), another claimed signer, the envelope after a later
// sign has replaced the last signature, or an envelope signed by another
// System's identity for the same node.
func FuzzVerifyMemo(f *testing.F) {
	f.Add(uint8(0), uint8(1), []byte("relay request"), uint8(0), uint16(0))
	f.Add(uint8(1), uint8(0), []byte{}, uint8(1), uint16(3))
	f.Add(uint8(0), uint8(3), []byte{0xff, 0x00}, uint8(2), uint16(31))
	f.Add(uint8(1), uint8(2), []byte("decline"), uint8(3), uint16(1))
	f.Add(uint8(0), uint8(1), bytes.Repeat([]byte{0x5a}, 200), uint8(4), uint16(7))
	f.Add(uint8(1), uint8(1), []byte("fq response"), uint8(5), uint16(2))

	f.Fuzz(func(t *testing.T, provider, signer uint8, payload []byte, mutate uint8, pos uint16) {
		p := providers[int(provider)%len(providers)]
		sys, fresh := newProvider(t, p.newSys, 9), newProvider(t, p.newSys, 9)
		who := trace.NodeID(signer % memoNodes)
		payload = append([]byte(nil), payload...)
		var sc Scratch
		id := identityOf(t, sys, who)
		if mutate%6 == 5 {
			id = identityOf(t, newProvider(t, p.newSys, 10), who)
		}
		s := sc.Sign(id, sim.Second, memoBody(payload))
		switch mutate % 6 {
		case 1:
			if len(payload) == 0 {
				s.Body = memoBody([]byte{0})
			} else {
				payload[int(pos)%len(payload)] ^= 0x01
			}
		case 2:
			s.Sig[int(pos)%len(s.Sig)] ^= 0x01
		case 3:
			s.Signer = (who + 1 + trace.NodeID(pos%(memoNodes-1))) % memoNodes
		case 4:
			sc.Sign(identityOf(t, sys, (who+1)%memoNodes), sim.Second, memoBody(append(payload, 0)))
		}
		got := sc.Verify(sys, s)
		if want := freshVerify(fresh, s); got != want {
			t.Fatalf("mutation %d: memo Verify = %v, fresh provider = %v", mutate%6, got, want)
		}
		if honest := mutate%6 == 0 || mutate%6 == 4; got != honest {
			t.Fatalf("mutation %d: Verify = %v, want %v", mutate%6, got, honest)
		}
	})
}
