package wire

import (
	"reflect"
	"testing"
	"testing/quick"

	"give2get/internal/g2gcrypto"
	"give2get/internal/message"
	"give2get/internal/sim"
	"give2get/internal/trace"
)

func newSystem(t *testing.T) g2gcrypto.System {
	t.Helper()
	sys, err := g2gcrypto.NewFast(8, 99)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func ident(t *testing.T, sys g2gcrypto.System, n trace.NodeID) g2gcrypto.Identity {
	t.Helper()
	id, err := sys.Identity(n)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func sampleBodies(t *testing.T, sys g2gcrypto.System) []Body {
	t.Helper()
	h := g2gcrypto.Hash([]byte("message"))
	var key g2gcrypto.SessionKey
	key[0] = 0xAA
	var seed [16]byte
	seed[3] = 7

	por1 := sign(ident(t, sys, 2), 10*sim.Second, ProofOfRelay{
		Hash: h, From: 1, To: 2, DPrime: 5, FM: 3, FBD: 9, Frame: 2,
	})
	por2 := sign(ident(t, sys, 3), 20*sim.Second, ProofOfRelay{
		Hash: h, From: 1, To: 3, DPrime: 5, FM: 9, FBD: 12, Frame: 2,
	})
	fq := sign(ident(t, sys, 4), 30*sim.Second, FQResponse{
		Responder: 4, DPrime: 5, FQ: 0, Frame: 3,
	})

	return []Body{
		RelayRequest{Hash: h},
		RelayOK{Hash: h},
		RelayDecline{Hash: h},
		RelayTransfer{Hash: h, FM: 42, Encrypted: []byte("ciphertext")},
		ProofOfRelay{Hash: h, From: 1, To: 2, DPrime: 6, FM: -1, FBD: 7, Frame: 5},
		KeyReveal{Hash: h, Key: key},
		PORChallenge{Hash: h, Seed: seed},
		PORResponse{First: por1, Second: por2},
		StoredResponse{Hash: h, Seed: seed, MAC: g2gcrypto.Hash([]byte("mac"))},
		FQRequest{Hash: h, DPrime: 3},
		FQResponse{Responder: 2, DPrime: 3, FQ: 11, Frame: 1},
		Misbehavior{Accused: 4, Reason: ReasonLied, Evidence: []Signed{fq}},
		Misbehavior{Accused: 2, Reason: ReasonCheated, Evidence: []Signed{por1, por2}},
	}
}

func TestSignedRoundTripAllKinds(t *testing.T) {
	sys := newSystem(t)
	signer := ident(t, sys, 1)
	for _, body := range sampleBodies(t, sys) {
		body := body
		t.Run(body.Kind().String(), func(t *testing.T) {
			env := sign(signer, 77*sim.Second, body)
			if !verify(sys, env) {
				t.Fatal("fresh envelope does not verify")
			}
			decoded, err := UnmarshalSigned(env.Marshal())
			if err != nil {
				t.Fatalf("UnmarshalSigned: %v", err)
			}
			if decoded.Signer != env.Signer || decoded.At != env.At {
				t.Errorf("header mismatch: %+v vs %+v", decoded, env)
			}
			if !reflect.DeepEqual(decoded.Body, env.Body) {
				t.Errorf("body mismatch:\n got %#v\nwant %#v", decoded.Body, env.Body)
			}
			if !verify(sys, decoded) {
				t.Error("decoded envelope does not verify")
			}
		})
	}
}

func TestTamperedEnvelopeFailsVerify(t *testing.T) {
	sys := newSystem(t)
	env := sign(ident(t, sys, 1), sim.Second, RelayOK{Hash: g2gcrypto.Hash([]byte("m"))})

	wrongSigner := env
	wrongSigner.Signer = 2
	if verify(sys, wrongSigner) {
		t.Error("envelope verified under the wrong signer")
	}

	wrongTime := env
	wrongTime.At = 2 * sim.Second
	if verify(sys, wrongTime) {
		t.Error("envelope verified with a modified timestamp")
	}

	wrongBody := env
	wrongBody.Body = RelayOK{Hash: g2gcrypto.Hash([]byte("other"))}
	if verify(sys, wrongBody) {
		t.Error("envelope verified with a modified body")
	}

	var empty Signed
	if verify(sys, empty) {
		t.Error("zero envelope verified")
	}
}

func TestKindBindingPreventsConfusion(t *testing.T) {
	// RELAY_OK and RELAY_RQST have identical payload layouts: the kind byte
	// in the signing input must keep their signatures distinct.
	sys := newSystem(t)
	signer := ident(t, sys, 1)
	h := g2gcrypto.Hash([]byte("m"))
	ok := sign(signer, sim.Second, RelayOK{Hash: h})
	confused := ok
	confused.Body = RelayRequest{Hash: h}
	if verify(sys, confused) {
		t.Error("RELAY_OK signature accepted for RELAY_RQST")
	}
}

func TestUnmarshalTruncations(t *testing.T) {
	sys := newSystem(t)
	for _, body := range sampleBodies(t, sys) {
		body := body
		t.Run(body.Kind().String(), func(t *testing.T) {
			raw := sign(ident(t, sys, 1), sim.Second, body).Marshal()
			for _, cut := range []int{1, len(raw) / 2, len(raw) - 1} {
				if _, err := UnmarshalSigned(raw[:cut]); err == nil {
					t.Errorf("truncation to %d bytes accepted", cut)
				}
			}
			if _, err := UnmarshalSigned(append(raw, 0)); err == nil {
				t.Error("trailing garbage accepted")
			}
		})
	}
}

func TestUnmarshalUnknownKind(t *testing.T) {
	sys := newSystem(t)
	raw := sign(ident(t, sys, 1), sim.Second, RelayOK{}).Marshal()
	raw[0] = 0xEE
	if _, err := UnmarshalSigned(raw); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestMisbehaviorEvidence(t *testing.T) {
	sys := newSystem(t)
	accusedID := ident(t, sys, 4)
	por := sign(accusedID, sim.Minute, ProofOfRelay{
		Hash: g2gcrypto.Hash([]byte("m")), From: 1, To: 4,
	})
	pom := Misbehavior{Accused: 4, Reason: ReasonDropped, Evidence: []Signed{por}}
	if !pom.ValidEvidence(&Scratch{}, sys) {
		t.Error("genuine evidence rejected")
	}

	// Framing: evidence signed by someone other than the accused.
	framed := Misbehavior{Accused: 5, Reason: ReasonDropped, Evidence: []Signed{por}}
	if framed.ValidEvidence(&Scratch{}, sys) {
		t.Error("PoM with mismatched evidence signer accepted")
	}

	// Forged evidence signature.
	forgedPor := por
	forgedPor.Sig = append(g2gcrypto.Signature{}, por.Sig...)
	forgedPor.Sig[0] ^= 1
	forged := Misbehavior{Accused: 4, Reason: ReasonDropped, Evidence: []Signed{forgedPor}}
	if forged.ValidEvidence(&Scratch{}, sys) {
		t.Error("PoM with forged evidence accepted")
	}

	// No evidence at all.
	if (Misbehavior{Accused: 4, Reason: ReasonDropped}).ValidEvidence(&Scratch{}, sys) {
		t.Error("PoM without evidence accepted")
	}

	// Second document with a broken signature poisons the whole proof.
	other := sign(ident(t, sys, 2), sim.Minute, ProofOfRelay{From: 4, To: 2})
	other.Sig[0] ^= 1
	twoDoc := Misbehavior{Accused: 4, Reason: ReasonCheated, Evidence: []Signed{por, other}}
	if twoDoc.ValidEvidence(&Scratch{}, sys) {
		t.Error("PoM with one forged document accepted")
	}
}

func TestKindStrings(t *testing.T) {
	if KindRelayRequest.String() != "RELAY_RQST" || KindMisbehavior.String() != "POM" {
		t.Error("kind names wrong")
	}
	if Kind(200).String() == "" {
		t.Error("unknown kind has empty name")
	}
	if ReasonDropped.String() != "dropped" || ReasonLied.String() != "lied" ||
		ReasonCheated.String() != "cheated" {
		t.Error("reason names wrong")
	}
	if MisbehaviorReason(9).String() == "" {
		t.Error("unknown reason has empty name")
	}
}

// Property: PoR envelopes round-trip for arbitrary field values.
func TestPORRoundTripProperty(t *testing.T) {
	sys := newSystem(t)
	signer := ident(t, sys, 1)
	property := func(from, to, dPrime uint8, fm, fbd int64, frame int32, at uint32) bool {
		por := ProofOfRelay{
			Hash:   g2gcrypto.Hash([]byte{from, to}),
			From:   trace.NodeID(from),
			To:     trace.NodeID(to),
			DPrime: trace.NodeID(dPrime),
			FM:     message.Quality(fm),
			FBD:    message.Quality(fbd),
			Frame:  message.FrameIndex(frame),
		}
		env := sign(signer, sim.Time(at), por)
		decoded, err := UnmarshalSigned(env.Marshal())
		if err != nil {
			return false
		}
		return reflect.DeepEqual(decoded.Body, por) && verify(sys, decoded)
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestUnmarshalFuzzNeverPanics feeds arbitrary bytes to the decoder: it may
// reject them, but it must never panic or accept garbage that then fails to
// re-encode.
func TestUnmarshalFuzzNeverPanics(t *testing.T) {
	property := func(data []byte) bool {
		s, err := UnmarshalSigned(data)
		if err != nil {
			return true
		}
		// Anything accepted must round-trip stably.
		again, err := UnmarshalSigned(s.Marshal())
		return err == nil && again.Signer == s.Signer && again.At == s.At
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestUnmarshalMutatedEncodings flips each byte of valid encodings: decoding
// must never panic, and any successfully decoded envelope must fail
// signature verification unless the flipped byte was outside the signed
// region in a way that preserves the canonical encoding.
func TestUnmarshalMutatedEncodings(t *testing.T) {
	sys := newSystem(t)
	for _, body := range sampleBodies(t, sys) {
		raw := sign(ident(t, sys, 1), sim.Second, body).Marshal()
		for i := 0; i < len(raw); i++ {
			mutated := append([]byte(nil), raw...)
			mutated[i] ^= 0xFF
			s, err := UnmarshalSigned(mutated)
			if err != nil {
				continue
			}
			if verify(sys, s) && i != 0 {
				// Flipping any byte of the envelope except... nothing: every
				// byte is either header (signed), body (signed), or the
				// signature itself.
				t.Fatalf("%s: byte %d flipped but envelope still verifies", body.Kind(), i)
			}
		}
	}
}

// sign wraps body in a Signed envelope through a fresh signing input: the
// unbuffered, unmemoized reference for Scratch.Sign.
func sign(id g2gcrypto.Identity, at sim.Time, body Body) Signed {
	return Signed{
		Signer: id.Node(),
		At:     at,
		Body:   body,
		Sig:    id.Sign(appendSigningInput(nil, id.Node(), at, body)),
	}
}

// verify checks s through a scratch that has never signed, so sys decides.
func verify(sys g2gcrypto.System, s Signed) bool {
	var sc Scratch
	return sc.Verify(sys, s)
}
