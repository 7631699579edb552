package g2gcrypto

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"fmt"
	"hash"

	"give2get/internal/trace"
)

// fastSystem simulates the PKI with keyed HMACs. Every node's "private key"
// is an HMAC secret derived from the simulation master secret, and sealing
// is a synthetic AEAD keyed per destination. The construction is honest
// about what the protocol can observe — signatures bind signer and payload,
// tampering breaks verification, sealed blobs only open at the destination —
// while costing roughly a microsecond per operation.
//
// The keyed HMAC states below are built once per identity and Reset()
// between uses, so steady-state sign/verify/seal/open perform no setup
// allocations. That makes the system single-threaded by construction, which
// matches how engines use it: one System per run, never shared across
// goroutines (sweeps give every parallel run its own System).
type fastSystem struct {
	master     [32]byte
	identities []*fastIdentity
}

type fastIdentity struct {
	node   trace.NodeID
	secret [32]byte

	// signMAC is the persistent HMAC(secret) state for Sign/Verify;
	// verifyScratch receives recomputed signatures during Verify so
	// verification never allocates.
	signMAC       hash.Hash
	verifyScratch []byte
	// sealKey/sealMAC serve SealFor (any sender sealing to this node) and
	// Open (this node unsealing); both directions key by the destination.
	sealKey [32]byte
	sealMAC hash.Hash
	// ksInner/ksOuter are dedicated SHA-256 states for the keystream, and
	// ksInnerMid/ksOuterMid the marshalled midstates of those states right
	// after absorbing the HMAC pads of sealKey. Restoring a midstate per
	// block instead of Reset+Write(64-byte pad) halves the compression count
	// of the whole keystream walk while producing bit-identical blocks.
	ksInner, ksOuter       hash.Hash
	ksInnerU, ksOuterU     encoding.BinaryUnmarshaler
	ksInnerMid, ksOuterMid []byte
	ksSum                  [32]byte
	// Keystream/trailer scratch. Living on the (already heap-resident)
	// identity rather than the stack keeps the byte slices handed to the
	// hash.Hash interface from escaping — and thus allocating — per call.
	ksCounter [8]byte
	ksBlock   [32]byte
	trailer   [32]byte
	// sigArena carves returned signatures out of chunked buffers, amortizing
	// the per-signature allocation across sigArenaChunk/sha256.Size calls.
	// Signatures are immutable once returned (callers copy, never append —
	// the full-capacity slice expression below forces a reallocation if one
	// ever did), so a chunk pinned by a retained signature is harmless.
	sigArena []byte
}

// sigArenaChunk is the signature arena block size: 32 signatures per alloc.
const sigArenaChunk = 32 * sha256.Size

var (
	_ System   = (*fastSystem)(nil)
	_ Identity = (*fastIdentity)(nil)
)

// NewFast sets up the simulated PKI, deterministically from seed.
func NewFast(nodes int, seed int64) (System, error) {
	if nodes <= 0 {
		return nil, fmt.Errorf("g2gcrypto: population must be positive, got %d", nodes)
	}
	s := &fastSystem{identities: make([]*fastIdentity, nodes)}
	var seedBytes [8]byte
	binary.LittleEndian.PutUint64(seedBytes[:], uint64(seed))
	s.master = sha256.Sum256(append([]byte("g2g-fast-master:"), seedBytes[:]...))
	for n := 0; n < nodes; n++ {
		id := &fastIdentity{
			node:    trace.NodeID(n),
			secret:  s.nodeSecret(trace.NodeID(n), "sign"),
			sealKey: s.nodeSecret(trace.NodeID(n), "seal"),
		}
		id.signMAC = hmac.New(sha256.New, id.secret[:])
		id.sealMAC = hmac.New(sha256.New, id.sealKey[:])
		id.verifyScratch = make([]byte, 0, sha256.Size)
		id.initKeystream()
		s.identities[n] = id
	}
	return s, nil
}

func (s *fastSystem) nodeSecret(n trace.NodeID, purpose string) [32]byte {
	mac := hmac.New(sha256.New, s.master[:])
	var id [8]byte
	binary.LittleEndian.PutUint64(id[:], uint64(n))
	mac.Write(id[:])
	mac.Write([]byte(purpose))
	var out [32]byte
	copy(out[:], mac.Sum(nil))
	return out
}

func (s *fastSystem) Name() string { return "fast" }
func (s *fastSystem) Nodes() int   { return len(s.identities) }

func (s *fastSystem) Identity(n trace.NodeID) (Identity, error) {
	if int(n) < 0 || int(n) >= len(s.identities) {
		return nil, fmt.Errorf("%w: %d", ErrUnknownNode, n)
	}
	return s.identities[n], nil
}

func (s *fastSystem) Verify(signer trace.NodeID, data []byte, sig Signature) bool {
	if int(signer) < 0 || int(signer) >= len(s.identities) {
		return false
	}
	id := s.identities[signer]
	id.signMAC.Reset()
	id.signMAC.Write(data)
	id.verifyScratch = id.signMAC.Sum(id.verifyScratch[:0])
	return hmac.Equal(id.verifyScratch, sig)
}

// SealFor "encrypts" with a destination-keyed HMAC stream cipher plus a MAC
// trailer: keystream blocks are HMAC(sealKey, counter), the trailer is
// HMAC(sealKey, plaintext). Only code holding the destination secret (the
// destination's Open, via the shared system) recovers the plaintext.
func (s *fastSystem) SealFor(dest trace.NodeID, plaintext []byte) ([]byte, error) {
	if int(dest) < 0 || int(dest) >= len(s.identities) {
		return nil, fmt.Errorf("%w: %d", ErrUnknownNode, dest)
	}
	id := s.identities[dest]
	out := make([]byte, len(plaintext)+sha256.Size)
	id.xorKeystream(out[:len(plaintext)], plaintext)
	id.sealMAC.Reset()
	id.sealMAC.Write(plaintext)
	id.sealMAC.Sum(out[len(plaintext):len(plaintext)])
	return out, nil
}

func (id *fastIdentity) Node() trace.NodeID { return id.node }

// Sign computes the MAC into a fresh arena slot.
func (id *fastIdentity) Sign(data []byte) Signature {
	if cap(id.sigArena)-len(id.sigArena) < sha256.Size {
		id.sigArena = make([]byte, 0, sigArenaChunk)
	}
	start := len(id.sigArena)
	id.signMAC.Reset()
	id.signMAC.Write(data)
	id.sigArena = id.signMAC.Sum(id.sigArena)
	return Signature(id.sigArena[start:len(id.sigArena):len(id.sigArena)])
}

func (id *fastIdentity) Open(box []byte) ([]byte, error) {
	if len(box) < sha256.Size {
		return nil, ErrBadCiphertext
	}
	body := box[:len(box)-sha256.Size]
	plaintext := make([]byte, len(body))
	id.xorKeystream(plaintext, body)
	id.sealMAC.Reset()
	id.sealMAC.Write(plaintext)
	id.sealMAC.Sum(id.trailer[:0])
	if !hmac.Equal(id.trailer[:], box[len(body):]) {
		return nil, ErrBadCiphertext
	}
	return plaintext, nil
}

// initKeystream precomputes the marshalled SHA-256 midstates of the seal-key
// HMAC pads. sha256 states implement encoding.BinaryMarshaler, so the
// pad-absorbed state is captured once per identity and restored per keystream
// block, replacing a 64-byte pad compression with a state copy.
func (id *fastIdentity) initKeystream() {
	var ipad, opad [sha256.BlockSize]byte
	hmacKeyPads(id.sealKey[:], &ipad, &opad)
	id.ksInner, id.ksOuter = sha256.New(), sha256.New()
	id.ksInner.Write(ipad[:])
	id.ksOuter.Write(opad[:])
	im, err1 := id.ksInner.(encoding.BinaryMarshaler).MarshalBinary()
	om, err2 := id.ksOuter.(encoding.BinaryMarshaler).MarshalBinary()
	if err1 != nil || err2 != nil {
		panic("g2gcrypto: sha256 midstate marshal failed")
	}
	id.ksInnerMid, id.ksOuterMid = im, om
	id.ksInnerU = id.ksInner.(encoding.BinaryUnmarshaler)
	id.ksOuterU = id.ksOuter.(encoding.BinaryUnmarshaler)
}

// xorKeystream XORs src into dst under the identity's seal-keyed MAC block
// stream (keystream block i = HMAC(sealKey, LE64(offset)), bit-identical to
// hmac over the dedicated states). Restoring the precomputed pad midstates
// per block instead of re-absorbing the pads halves the compression count,
// and full blocks XOR word-wise.
func (id *fastIdentity) xorKeystream(dst, src []byte) {
	for off := 0; off < len(src); off += sha256.Size {
		binary.LittleEndian.PutUint64(id.ksCounter[:], uint64(off))
		_ = id.ksInnerU.UnmarshalBinary(id.ksInnerMid)
		id.ksInner.Write(id.ksCounter[:])
		id.ksInner.Sum(id.ksSum[:0])
		_ = id.ksOuterU.UnmarshalBinary(id.ksOuterMid)
		id.ksOuter.Write(id.ksSum[:])
		id.ksOuter.Sum(id.ksBlock[:0])
		if off+sha256.Size <= len(src) {
			for i := 0; i < sha256.Size; i += 8 {
				v := binary.LittleEndian.Uint64(src[off+i:]) ^
					binary.LittleEndian.Uint64(id.ksBlock[i:])
				binary.LittleEndian.PutUint64(dst[off+i:], v)
			}
		} else {
			for i := 0; off+i < len(src); i++ {
				dst[off+i] = src[off+i] ^ id.ksBlock[i]
			}
		}
	}
}
