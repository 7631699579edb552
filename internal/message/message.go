// Package message implements the end-to-end message format of Section IV:
//
//	m = ⟨D, E_PKD(S, msg_id, body)⟩_S
//
// The destination is in the clear (relays must route), while the sender,
// message id, and body are sealed for the destination. Hiding the sender is
// a deliberate design choice: a relay can never tell whether the node that
// handed it the message is the source that will later test it.
//
// H(m) covers the immutable part of the message only. The delegation
// forwarding-quality label and the sender's embedded failed-relay
// declarations travel alongside and are excluded from the hash, since they
// legitimately change or accrue in transit.
package message

import (
	"encoding/binary"
	"errors"
	"fmt"

	"give2get/internal/g2gcrypto"
	"give2get/internal/trace"
)

// ID uniquely identifies a message end-to-end. It is assigned by the sender
// and only visible to the destination (it lives inside the sealed payload);
// relays identify messages by H(m).
type ID uint64

// MakeID derives a globally unique message id from the sender and its local
// sequence number.
func MakeID(sender trace.NodeID, seq uint32) ID {
	return ID(uint64(uint32(sender))<<32 | uint64(seq))
}

// Payload is the sealed content: only the destination ever sees these
// fields.
type Payload struct {
	Sender trace.NodeID
	ID     ID
	Body   []byte
}

// Marshal encodes the payload deterministically.
func (p Payload) Marshal() []byte {
	out := make([]byte, 0, 20+len(p.Body))
	out = binary.BigEndian.AppendUint32(out, uint32(p.Sender))
	out = binary.BigEndian.AppendUint64(out, uint64(p.ID))
	out = binary.BigEndian.AppendUint32(out, uint32(len(p.Body)))
	return append(out, p.Body...)
}

// ErrShortPayload reports a sealed payload that decodes to fewer bytes than
// the fixed header.
var ErrShortPayload = errors.New("message: payload too short")

// UnmarshalPayload decodes a payload produced by Marshal.
func UnmarshalPayload(data []byte) (Payload, error) {
	if len(data) < 16 {
		return Payload{}, ErrShortPayload
	}
	p := Payload{
		Sender: trace.NodeID(binary.BigEndian.Uint32(data)),
		ID:     ID(binary.BigEndian.Uint64(data[4:])),
	}
	bodyLen := binary.BigEndian.Uint32(data[12:])
	if uint32(len(data)-16) != bodyLen {
		return Payload{}, fmt.Errorf("message: body length %d does not match remaining %d bytes",
			bodyLen, len(data)-16)
	}
	p.Body = append([]byte(nil), data[16:]...)
	return p, nil
}

// Message is the unit relays carry. Dest and Sealed are immutable and
// covered by Hash(); SenderSig authenticates them to the destination (which
// is the only party that learns who the sender is, and hence whose signature
// to check).
type Message struct {
	Dest      trace.NodeID
	Sealed    []byte
	SenderSig g2gcrypto.Signature
}

// New seals a payload for dest and signs the immutable part with the
// sender's identity.
func New(sys g2gcrypto.System, sender g2gcrypto.Identity, dest trace.NodeID, id ID, body []byte) (*Message, error) {
	payload := Payload{Sender: sender.Node(), ID: id, Body: body}
	sealed, err := sys.SealFor(dest, payload.Marshal())
	if err != nil {
		return nil, fmt.Errorf("message: seal: %w", err)
	}
	m := &Message{Dest: dest, Sealed: sealed}
	m.SenderSig = sender.Sign(m.hashInput())
	return m, nil
}

func (m *Message) hashInput() []byte {
	out := make([]byte, 0, 4+len(m.Sealed))
	out = binary.BigEndian.AppendUint32(out, uint32(m.Dest))
	return append(out, m.Sealed...)
}

// Hash returns H(m), the identifier relays use for this message.
func (m *Message) Hash() g2gcrypto.Digest {
	return g2gcrypto.Hash(m.hashInput())
}

// Marshal encodes the full message (for payload encryption during the relay
// phase, and for the heavy-HMAC challenge input).
func (m *Message) Marshal() []byte {
	out := make([]byte, 0, 12+len(m.Sealed)+len(m.SenderSig))
	out = binary.BigEndian.AppendUint32(out, uint32(m.Dest))
	out = binary.BigEndian.AppendUint32(out, uint32(len(m.Sealed)))
	out = append(out, m.Sealed...)
	out = binary.BigEndian.AppendUint32(out, uint32(len(m.SenderSig)))
	return append(out, m.SenderSig...)
}

// Unmarshal decodes a message produced by Marshal.
func Unmarshal(data []byte) (*Message, error) {
	if len(data) < 8 {
		return nil, errors.New("message: truncated header")
	}
	m := &Message{Dest: trace.NodeID(binary.BigEndian.Uint32(data))}
	sealedLen := int(binary.BigEndian.Uint32(data[4:]))
	rest := data[8:]
	if sealedLen < 0 || len(rest) < sealedLen+4 {
		return nil, errors.New("message: truncated sealed payload")
	}
	m.Sealed = append([]byte(nil), rest[:sealedLen]...)
	rest = rest[sealedLen:]
	sigLen := int(binary.BigEndian.Uint32(rest))
	if len(rest[4:]) != sigLen {
		return nil, errors.New("message: truncated signature")
	}
	m.SenderSig = append(g2gcrypto.Signature(nil), rest[4:]...)
	return m, nil
}

// OpenResult is what the destination learns when opening a message.
type OpenResult struct {
	Payload Payload
	// Authentic reports whether the sender signature over the immutable
	// part verifies for the sender named in the sealed payload.
	Authentic bool
}

// Open unseals the message with the destination identity and verifies the
// sender's signature against the sender identity revealed by the payload.
func (m *Message) Open(sys g2gcrypto.System, dest g2gcrypto.Identity) (OpenResult, error) {
	if dest.Node() != m.Dest {
		return OpenResult{}, fmt.Errorf("message: node %d opening message destined to %d",
			dest.Node(), m.Dest)
	}
	raw, err := dest.Open(m.Sealed)
	if err != nil {
		return OpenResult{}, fmt.Errorf("message: open: %w", err)
	}
	payload, err := UnmarshalPayload(raw)
	if err != nil {
		return OpenResult{}, err
	}
	return OpenResult{
		Payload:   payload,
		Authentic: sys.Verify(payload.Sender, m.hashInput(), m.SenderSig),
	}, nil
}
