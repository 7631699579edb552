// Package wire defines the signed control messages of the Give2Get
// protocols: the relay phase (Fig. 1), the test phase (Fig. 2), the G2G
// Delegation relay phase (Fig. 6), and proofs of misbehavior. Every message
// carries a timestamp (the paper assumes loose time synchronization and
// timestamps on all control traffic) and is signed by its originator; the
// canonical binary encoding here is exactly what gets signed.
package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"give2get/internal/g2gcrypto"
	"give2get/internal/message"
	"give2get/internal/obs"
	"give2get/internal/sim"
	"give2get/internal/trace"
)

// Kind discriminates the control message types.
type Kind uint8

// Control message kinds. The numbering is part of the wire format.
const (
	KindRelayRequest  Kind = iota + 1 // ⟨RELAY_RQST, H(m)⟩_A
	KindRelayOK                       // ⟨RELAY_OK, H(m)⟩_B
	KindRelayDecline                  // B has already handled H(m)
	KindRelayTransfer                 // ⟨RELAY, H(m), f_m, E_k(m)⟩_A
	KindProofOfRelay                  // ⟨POR, H(m), A, B, D', f_m, f_BD⟩_B
	KindKeyReveal                     // ⟨KEY, H(m), k⟩_A
	KindPORChallenge                  // ⟨POR_RQST, H(m), s⟩_A
	KindPORResponse                   // ⟨POR_RESP, POR, POR⟩_B
	KindStored                        // ⟨STORED, H(m), s, HMAC(m,s)⟩_B
	KindFQRequest                     // ⟨FQ_RQST, H(m), D'⟩_A
	KindFQResponse                    // ⟨FQ_RESP, B, D', f_BD⟩_B
	KindMisbehavior                   // proof of misbehavior broadcast
)

var kindNames = map[Kind]string{
	KindRelayRequest:  "RELAY_RQST",
	KindRelayOK:       "RELAY_OK",
	KindRelayDecline:  "RELAY_DECLINE",
	KindRelayTransfer: "RELAY",
	KindProofOfRelay:  "POR",
	KindKeyReveal:     "KEY",
	KindPORChallenge:  "POR_RQST",
	KindPORResponse:   "POR_RESP",
	KindStored:        "STORED",
	KindFQRequest:     "FQ_RQST",
	KindFQResponse:    "FQ_RESP",
	KindMisbehavior:   "POM",
}

// String returns the paper's name for the message kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Body is a control message payload with a canonical encoding.
type Body interface {
	Kind() Kind
	// MarshalBody appends the canonical encoding of the payload to dst.
	MarshalBody(dst []byte) []byte
}

// Signed is a control message wrapped with its originator, timestamp, and
// signature, i.e. the paper's ⟨...⟩_X notation.
type Signed struct {
	Signer trace.NodeID
	At     sim.Time
	Body   Body
	Sig    g2gcrypto.Signature
}

// appendSigningInput encodes the canonical signing input into dst's backing
// array and returns the extended slice.
func appendSigningInput(dst []byte, signer trace.NodeID, at sim.Time, body Body) []byte {
	dst = append(dst, byte(body.Kind()))
	dst = binary.BigEndian.AppendUint32(dst, uint32(signer))
	dst = binary.BigEndian.AppendUint64(dst, uint64(at))
	return body.MarshalBody(dst)
}

// Scratch signs and verifies envelopes through a reusable signing-input
// buffer and two memos, which serve either provider because both sign
// deterministically (HMAC, RFC 8032 Ed25519): a caller-held SignMemo answers
// a repeated sign, and the scratch's last signature, memo hit or not,
// answers the verify that follows it. A Scratch is NOT safe for concurrent
// use: callers own one per single-threaded context (the protocol Env keeps
// one per run). Providers must not retain the input (see Identity.Sign).
type Scratch struct {
	// Stats, if set, is charged NoteSign(0) or NoteVerify(0) per memo hit,
	// the call an instrumented provider would have charged.
	Stats *obs.CryptoStats
	buf   []byte
	last  SignMemo
	arena []byte // carves the signatures sign hits return
}

// arenaChunk is one arena allocation: 64 fast or 32 real signatures.
const arenaChunk = 2048

// SignMemo is a caller-held memo of one signature: the signer identity
// (compared with ==) and the memo's own copies of the signing input and the
// signature, so a caller mutating either can only make it miss. A caller
// keeps one where it re-signs one statement, such as a custody copy offered
// to every peer of an instant. The zero value is empty; do not copy a used
// memo, as the copy would share its buffers.
type SignMemo struct {
	signer     g2gcrypto.Identity
	input, sig []byte
}

func (m *SignMemo) fill(id g2gcrypto.Identity, input, sig []byte) {
	m.signer = id
	m.input = append(m.input[:0], input...)
	m.sig = append(m.sig[:0], sig...)
}

// Sign wraps body in a Signed envelope stamped at the given virtual time.
func (sc *Scratch) Sign(id g2gcrypto.Identity, at sim.Time, body Body) Signed {
	return sc.SignMemo(id, nil, at, body)
}

// SignMemo is Sign through memo m, which may be nil: a repeat of m's signer
// and input is answered from m without asking the provider, and anything
// else is signed by id and refills m.
func (sc *Scratch) SignMemo(id g2gcrypto.Identity, m *SignMemo, at sim.Time, body Body) Signed {
	sc.buf = appendSigningInput(sc.buf[:0], id.Node(), at, body)
	var sig g2gcrypto.Signature
	if m != nil && m.signer == id && bytes.Equal(m.input, sc.buf) {
		// A fresh arena slot, full-capacity sliced: the caller's copy is
		// its own, and an append to it reallocates.
		if cap(sc.arena)-len(sc.arena) < len(m.sig) {
			sc.arena = make([]byte, 0, arenaChunk)
		}
		start := len(sc.arena)
		sc.arena = append(sc.arena, m.sig...)
		sig = sc.arena[start:len(sc.arena):len(sc.arena)]
		sc.Stats.NoteSign(0)
	} else {
		sig = id.Sign(sc.buf)
		if m != nil {
			m.fill(id, sc.buf, sig)
		}
	}
	sc.last.fill(id, sc.buf, sig)
	return Signed{Signer: id.Node(), At: at, Body: body, Sig: sig}
}

// Verify checks the envelope signature against the claimed signer. The last
// signature answers true when the input and every signature byte are equal
// and it came from sys's own identity for the signer; otherwise sys
// decides, as Ed25519 accepts valid signatures Sign never made, so a
// mismatch is not false. A scratch that never signs always asks sys.
func (sc *Scratch) Verify(sys g2gcrypto.System, s Signed) bool {
	if s.Body == nil {
		return false
	}
	sc.buf = appendSigningInput(sc.buf[:0], s.Signer, s.At, s.Body)
	if l := &sc.last; bytes.Equal(l.sig, s.Sig) && bytes.Equal(l.input, sc.buf) {
		if id, err := sys.Identity(s.Signer); err == nil && id == l.signer {
			sc.Stats.NoteVerify(0)
			return true
		}
	}
	return sys.Verify(s.Signer, sc.buf, s.Sig)
}

// Marshal encodes the full envelope, signature included, so envelopes can be
// nested inside other messages (POR_RESP carries two PoRs; a PoM carries its
// evidence).
func (s Signed) Marshal() []byte {
	body := s.Body.MarshalBody(nil)
	out := make([]byte, 0, 32+len(body)+len(s.Sig))
	out = append(out, byte(s.Body.Kind()))
	out = binary.BigEndian.AppendUint32(out, uint32(s.Signer))
	out = binary.BigEndian.AppendUint64(out, uint64(s.At))
	out = binary.BigEndian.AppendUint32(out, uint32(len(body)))
	out = append(out, body...)
	out = binary.BigEndian.AppendUint32(out, uint32(len(s.Sig)))
	return append(out, s.Sig...)
}

// Errors returned by the decoders.
var (
	ErrTruncated   = errors.New("wire: truncated encoding")
	ErrUnknownKind = errors.New("wire: unknown message kind")
)

// UnmarshalSigned decodes an envelope produced by Marshal.
func UnmarshalSigned(data []byte) (Signed, error) {
	s, rest, err := unmarshalSignedPrefix(data)
	if err != nil {
		return Signed{}, err
	}
	if len(rest) != 0 {
		return Signed{}, fmt.Errorf("%w: %d trailing bytes", ErrTruncated, len(rest))
	}
	return s, nil
}

func unmarshalSignedPrefix(data []byte) (Signed, []byte, error) {
	if len(data) < 17 {
		return Signed{}, nil, ErrTruncated
	}
	kind := Kind(data[0])
	s := Signed{
		Signer: trace.NodeID(binary.BigEndian.Uint32(data[1:])),
		At:     sim.Time(binary.BigEndian.Uint64(data[5:])),
	}
	bodyLen := int(binary.BigEndian.Uint32(data[13:]))
	rest := data[17:]
	if bodyLen < 0 || len(rest) < bodyLen+4 {
		return Signed{}, nil, ErrTruncated
	}
	body, err := unmarshalBody(kind, rest[:bodyLen])
	if err != nil {
		return Signed{}, nil, err
	}
	s.Body = body
	rest = rest[bodyLen:]
	sigLen := int(binary.BigEndian.Uint32(rest))
	rest = rest[4:]
	if sigLen < 0 || len(rest) < sigLen {
		return Signed{}, nil, ErrTruncated
	}
	s.Sig = append(g2gcrypto.Signature(nil), rest[:sigLen]...)
	return s, rest[sigLen:], nil
}

// --- encoding helpers ---

func appendDigest(dst []byte, d g2gcrypto.Digest) []byte { return append(dst, d[:]...) }

func readDigest(data []byte) (g2gcrypto.Digest, []byte, error) {
	var d g2gcrypto.Digest
	if len(data) < len(d) {
		return d, nil, ErrTruncated
	}
	copy(d[:], data)
	return d, data[len(d):], nil
}

func appendNode(dst []byte, n trace.NodeID) []byte {
	return binary.BigEndian.AppendUint32(dst, uint32(n))
}

func readNode(data []byte) (trace.NodeID, []byte, error) {
	if len(data) < 4 {
		return 0, nil, ErrTruncated
	}
	return trace.NodeID(binary.BigEndian.Uint32(data)), data[4:], nil
}

func appendInt64(dst []byte, v int64) []byte {
	return binary.BigEndian.AppendUint64(dst, uint64(v))
}

func readInt64(data []byte) (int64, []byte, error) {
	if len(data) < 8 {
		return 0, nil, ErrTruncated
	}
	return int64(binary.BigEndian.Uint64(data)), data[8:], nil
}

func appendBytes(dst, b []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(b)))
	return append(dst, b...)
}

func readBytes(data []byte) ([]byte, []byte, error) {
	if len(data) < 4 {
		return nil, nil, ErrTruncated
	}
	n := int(binary.BigEndian.Uint32(data))
	data = data[4:]
	if n < 0 || len(data) < n {
		return nil, nil, ErrTruncated
	}
	return append([]byte(nil), data[:n]...), data[n:], nil
}

func appendQuality(dst []byte, q message.Quality) []byte { return appendInt64(dst, int64(q)) }

func readQuality(data []byte) (message.Quality, []byte, error) {
	v, rest, err := readInt64(data)
	return message.Quality(v), rest, err
}
