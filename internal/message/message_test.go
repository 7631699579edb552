package message

import (
	"bytes"
	"testing"
	"testing/quick"

	"give2get/internal/g2gcrypto"
	"give2get/internal/sim"
	"give2get/internal/trace"
)

func newSystem(t *testing.T, nodes int) g2gcrypto.System {
	t.Helper()
	sys, err := g2gcrypto.NewFast(nodes, 1)
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

func TestIDRoundTrip(t *testing.T) {
	if id := MakeID(17, 42); id != 17<<32|42 {
		t.Errorf("MakeID(17, 42) = %#x, want sender in the high word, sequence in the low", uint64(id))
	}
	if MakeID(1, 1) == MakeID(1, 2) || MakeID(1, 1) == MakeID(2, 1) {
		t.Error("distinct ids collided")
	}
}

func TestPayloadMarshalRoundTrip(t *testing.T) {
	p := Payload{Sender: 3, ID: MakeID(3, 9), Body: []byte("hello give2get")}
	got, err := UnmarshalPayload(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Sender != p.Sender || got.ID != p.ID || !bytes.Equal(got.Body, p.Body) {
		t.Errorf("roundtrip = %+v, want %+v", got, p)
	}
}

func TestUnmarshalPayloadErrors(t *testing.T) {
	if _, err := UnmarshalPayload([]byte{1, 2, 3}); err == nil {
		t.Error("short payload accepted")
	}
	p := Payload{Sender: 1, ID: 2, Body: []byte("abc")}
	data := p.Marshal()
	if _, err := UnmarshalPayload(data[:len(data)-1]); err == nil {
		t.Error("truncated body accepted")
	}
}

func TestNewOpen(t *testing.T) {
	sys := newSystem(t, 4)
	sender := ident(t, sys, 1)
	dest := ident(t, sys, 3)

	m, err := New(sys, sender, 3, MakeID(1, 1), []byte("body"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Open(sys, dest)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Authentic {
		t.Error("genuine message reported unauthentic")
	}
	if res.Payload.Sender != 1 || !bytes.Equal(res.Payload.Body, []byte("body")) {
		t.Errorf("payload = %+v", res.Payload)
	}
}

func TestOpenWrongDestination(t *testing.T) {
	sys := newSystem(t, 4)
	m, err := New(sys, ident(t, sys, 1), 3, MakeID(1, 1), []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Open(sys, ident(t, sys, 2)); err == nil {
		t.Error("relay opened a message not destined to it")
	}
}

func TestHashCoversImmutablePartOnly(t *testing.T) {
	sys := newSystem(t, 4)
	m, err := New(sys, ident(t, sys, 0), 2, MakeID(0, 1), []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	h := m.Hash()
	// The hash is stable across marshalling.
	decoded, err := Unmarshal(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Hash() != h {
		t.Error("hash changed across marshal/unmarshal")
	}
	// Tampering with either hashed field changes the hash.
	tampered := *m
	tampered.Dest = 3
	if tampered.Hash() == h {
		t.Error("dest not covered by hash")
	}
	tampered = *m
	tampered.Sealed = append(append([]byte{}, m.Sealed...), 0)
	if tampered.Hash() == h {
		t.Error("sealed payload not covered by hash")
	}
}

func TestSenderHiddenFromRelays(t *testing.T) {
	sys := newSystem(t, 4)
	m, err := New(sys, ident(t, sys, 1), 3, MakeID(1, 7), []byte("secret body"))
	if err != nil {
		t.Fatal(err)
	}
	// The wire bytes must not contain the sender id in any trivially
	// recoverable form: the only cleartext field is the destination.
	raw := m.Marshal()
	if bytes.Contains(raw, []byte("secret body")) {
		t.Error("body leaks in cleartext")
	}
	// Sealed blob opened by a non-destination fails, so relays learn
	// nothing about S; covered in g2gcrypto tests. Here check the message
	// survives a decode by a relay that then forwards it on.
	decoded, err := Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	res, err := decoded.Open(sys, ident(t, sys, 3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Payload.Sender != 1 || !res.Authentic {
		t.Errorf("destination view = %+v", res)
	}
}

func TestForgedSenderSigDetected(t *testing.T) {
	sys := newSystem(t, 4)
	m, err := New(sys, ident(t, sys, 1), 3, MakeID(1, 1), []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	m.SenderSig = ident(t, sys, 2).Sign(m.Marshal()) // wrong signer, wrong bytes
	res, err := m.Open(sys, ident(t, sys, 3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Authentic {
		t.Error("forged signature accepted")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	sys := newSystem(t, 2)
	m, err := New(sys, ident(t, sys, 0), 1, MakeID(0, 1), []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	raw := m.Marshal()
	tests := []struct {
		name string
		data []byte
	}{
		{name: "empty", data: nil},
		{name: "short header", data: raw[:6]},
		{name: "truncated sealed", data: raw[:10]},
		{name: "truncated signature", data: raw[:len(raw)-1]},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Unmarshal(tt.data); err == nil {
				t.Error("corrupted encoding accepted")
			}
		})
	}
}

func TestMessageMarshalRoundTripProperty(t *testing.T) {
	sys := newSystem(t, 3)
	sender := ident(t, sys, 0)
	property := func(body []byte, seq uint32) bool {
		m, err := New(sys, sender, 2, MakeID(0, seq), body)
		if err != nil {
			return false
		}
		decoded, err := Unmarshal(m.Marshal())
		if err != nil {
			return false
		}
		return decoded.Hash() == m.Hash() &&
			bytes.Equal(decoded.SenderSig, m.SenderSig)
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestQualityComparisons(t *testing.T) {
	if !QualityFromCount(5).Better(QualityFromCount(3)) {
		t.Error("5 encounters should beat 3")
	}
	if QualityFromCount(3).Better(QualityFromCount(3)) {
		t.Error("equal quality must not count as better")
	}
	early := QualityFromTime(10 * sim.Minute)
	late := QualityFromTime(2 * sim.Hour)
	if !late.Better(early) {
		t.Error("later contact should beat earlier")
	}
	if !early.Better(0) {
		t.Error("any contact should beat the zero floor")
	}
}

func TestFrameOf(t *testing.T) {
	frame := 34 * sim.Minute
	tests := []struct {
		at   sim.Time
		want FrameIndex
	}{
		{at: 0, want: 0},
		{at: 33 * sim.Minute, want: 0},
		{at: 34 * sim.Minute, want: 1},
		{at: 100 * sim.Minute, want: 2},
	}
	for _, tt := range tests {
		if got := FrameOf(tt.at, frame); got != tt.want {
			t.Errorf("FrameOf(%v) = %d, want %d", tt.at, got, tt.want)
		}
	}
	if got := FrameOf(time100(), 0); got != 0 {
		t.Errorf("zero frame length: got %d", got)
	}
}

func time100() sim.Time { return 100 * sim.Minute }
