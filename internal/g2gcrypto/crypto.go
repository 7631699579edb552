// Package g2gcrypto supplies the cryptographic capabilities the paper's
// system model assumes (Section III): every node holds a key pair whose
// public part is certified by a trusted authority that stays offline after
// setup and takes no part in the protocols, so a provider models it as the
// fixed public-key table it leaves behind; nodes sign control messages, seal
// message bodies for the destination only, and compute a deliberately heavy
// HMAC as a proof of storage.
//
// Two interchangeable providers implement the System interface:
//
//   - Real: Ed25519 signatures, X25519+AES-GCM hybrid sealing, AES-GCM
//     payload encryption. Proves the wire protocol is implementable with
//     real primitives; -realcrypto runs and abl-crypto select it.
//   - Fast: keyed-HMAC "signatures" with per-node secrets derived from one
//     simulation master secret. Cryptographically meaningless outside a
//     closed simulation, but far cheaper, which keeps thousand-run
//     parameter sweeps tractable. The abl-crypto experiment measures the gap.
package g2gcrypto

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"hash"

	"give2get/internal/trace"
)

// Digest is the output of the system hash function H().
type Digest [sha256.Size]byte

// Hash computes H(data).
func Hash(data []byte) Digest { return sha256.Sum256(data) }

// Signature is a detached signature over a byte string.
type Signature []byte

// Errors shared by both providers.
var (
	ErrBadCiphertext = errors.New("g2gcrypto: ciphertext malformed or corrupted")
	ErrUnknownNode   = errors.New("g2gcrypto: node not registered with the authority")
)

// Identity is the private-key side held by a single node.
type Identity interface {
	// Node returns the identity's owner.
	Node() trace.NodeID
	// Sign produces a signature over data with the node's private key,
	// deterministically (wire.Scratch's memos rely on it). Implementations
	// must not retain data: callers may reuse the slice.
	Sign(data []byte) Signature
	// Open decrypts a blob sealed for this node with SealFor.
	Open(box []byte) ([]byte, error)
}

// System models the deployed PKI: the authority has issued certificates for
// a fixed population, so any node can verify any other node's signatures and
// seal content for any destination using public information only.
type System interface {
	// Name identifies the provider ("real" or "fast").
	Name() string
	// Nodes returns the registered population size.
	Nodes() int
	// Identity returns node n's private identity, one == value per node.
	Identity(n trace.NodeID) (Identity, error)
	// Verify checks that sig is signer's signature over data. Like
	// Identity.Sign, implementations must not retain data.
	Verify(signer trace.NodeID, data []byte, sig Signature) bool
	// SealFor encrypts plaintext so that only dest can open it. The sealed
	// blob hides the plaintext (including the sender identity embedded in
	// it, which is what keeps relays blind to the message source).
	SealFor(dest trace.NodeID, plaintext []byte) ([]byte, error)
}

// SessionKey is the symmetric key k of the Ek(m) step of the relay phase.
type SessionKey [32]byte

// HMACScratch holds the reusable hash states and pad buffers of the
// hand-rolled heavy-HMAC loop. A zero value is ready to use; the first call
// allocates the two SHA-256 states, later calls reuse them, so steady-state
// storage proofs perform no setup allocations. A scratch belongs to one
// goroutine; each run's protocol environment keeps one.
type HMACScratch struct {
	inner, outer hash.Hash
	ipad, opad   [sha256.BlockSize]byte
	sum          [sha256.Size]byte
	round        [8]byte
}

// HeavyHMAC computes the storage proof into the scratch's states,
// bit-identical to the package-level HeavyHMAC.
func (s *HMACScratch) HeavyHMAC(message, seed []byte, iterations int) Digest {
	if iterations < 1 {
		iterations = 1
	}
	// Hand-rolled HMAC — H(K^opad ‖ H(K^ipad ‖ m)) with two SHA-256 states
	// reset each round — instead of hmac.New per round: the iteration loop
	// is the single hottest allocation site in a test phase, and the keyed
	// states here are rebuilt from the previous round's sum, which the
	// stock package can only express by reallocating.
	if s.inner == nil {
		s.inner, s.outer = sha256.New(), sha256.New()
	}
	inner, outer := s.inner, s.outer
	hmacKeyPads(seed, &s.ipad, &s.opad)
	inner.Reset()
	inner.Write(s.ipad[:])
	inner.Write(message)
	inner.Sum(s.sum[:0])
	outer.Reset()
	outer.Write(s.opad[:])
	outer.Write(s.sum[:])
	outer.Sum(s.sum[:0])
	for i := 1; i < iterations; i++ {
		binary.LittleEndian.PutUint64(s.round[:], uint64(i))
		hmacKeyPads(s.sum[:], &s.ipad, &s.opad)
		inner.Reset()
		inner.Write(s.ipad[:])
		inner.Write(s.round[:])
		inner.Write(message)
		inner.Sum(s.sum[:0])
		outer.Reset()
		outer.Write(s.opad[:])
		outer.Write(s.sum[:])
		outer.Sum(s.sum[:0])
	}
	var out Digest
	copy(out[:], s.sum[:])
	return out
}

// HeavyHMAC is the storage-proof challenge of the test phase (Fig. 2): a
// keyed MAC over the full message, iterated to make it expensive by design.
// The paper requires the cost to exceed the energy saved by not relaying;
// iterations is the knob (ablated in the benches).
func HeavyHMAC(message, seed []byte, iterations int) Digest {
	var s HMACScratch
	return s.HeavyHMAC(message, seed, iterations)
}

// hmacKeyPads derives the HMAC inner/outer pad blocks from a key, exactly as
// crypto/hmac does (keys longer than the block size are hashed first), so
// the hand-rolled loop above stays bit-compatible with hmac.New.
func hmacKeyPads(key []byte, ipad, opad *[sha256.BlockSize]byte) {
	var kb [sha256.BlockSize]byte
	if len(key) > len(kb) {
		h := sha256.Sum256(key)
		copy(kb[:], h[:])
	} else {
		copy(kb[:], key)
	}
	for i := range kb {
		ipad[i] = kb[i] ^ 0x36
		opad[i] = kb[i] ^ 0x5c
	}
}
