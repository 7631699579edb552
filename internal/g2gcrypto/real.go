package g2gcrypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand/v2"

	"give2get/internal/trace"
)

// realSystem implements System with production primitives: Ed25519 for
// signatures and X25519 + AES-256-GCM for sealing. Every node's keys are
// generated at setup, and the table of public keys stands in for the
// certificates of the paper's offline authority: any node can verify any
// other's signatures and seal for any destination, and nothing is consulted
// after setup.
type realSystem struct {
	identities []*realIdentity
	// stream is the run's one source of key material, seeded: keys, seal
	// ephemerals and nonces are drawn from it in call order, so a run is
	// reproducible for a fixed seed. A simulation needs that, not secrecy.
	stream *rand.ChaCha8
}

type realIdentity struct {
	node    trace.NodeID
	signKey ed25519.PrivateKey
	signPub ed25519.PublicKey
	boxKey  *ecdh.PrivateKey
	boxPub  *ecdh.PublicKey
}

var (
	_ System   = (*realSystem)(nil)
	_ Identity = (*realIdentity)(nil)
)

// NewReal sets up a real-crypto PKI for a population of nodes,
// deterministically from seed.
func NewReal(nodes int, seed int64) (System, error) {
	if nodes <= 0 {
		return nil, fmt.Errorf("g2gcrypto: population must be positive, got %d", nodes)
	}
	var seedBytes [8]byte
	binary.LittleEndian.PutUint64(seedBytes[:], uint64(seed))
	s := &realSystem{
		identities: make([]*realIdentity, nodes),
		stream:     rand.NewChaCha8(sha256.Sum256(append([]byte("g2g-real-stream:"), seedBytes[:]...))),
	}
	for n := 0; n < nodes; n++ {
		priv := ed25519.NewKeyFromSeed(s.draw(ed25519.SeedSize))
		boxKey, err := s.newBoxKey()
		if err != nil {
			return nil, fmt.Errorf("g2gcrypto: box key for node %d: %w", n, err)
		}
		s.identities[n] = &realIdentity{
			node:    trace.NodeID(n),
			signKey: priv,
			signPub: priv.Public().(ed25519.PublicKey),
			boxKey:  boxKey,
			boxPub:  boxKey.PublicKey(),
		}
	}
	return s, nil
}

// draw returns the stream's next n bytes.
func (s *realSystem) draw(n int) []byte {
	out := make([]byte, (n+7)/8*8)
	for i := 0; i < len(out); i += 8 {
		binary.LittleEndian.PutUint64(out[i:], s.stream.Uint64())
	}
	return out[:n]
}

// newBoxKey draws an X25519 private key. Unlike ecdh's GenerateKey it reads
// exactly 32 bytes, never a random extra one.
func (s *realSystem) newBoxKey() (*ecdh.PrivateKey, error) {
	return ecdh.X25519().NewPrivateKey(s.draw(32))
}

func (s *realSystem) Name() string { return "real" }
func (s *realSystem) Nodes() int   { return len(s.identities) }

func (s *realSystem) Identity(n trace.NodeID) (Identity, error) {
	if int(n) < 0 || int(n) >= len(s.identities) {
		return nil, fmt.Errorf("%w: %d", ErrUnknownNode, n)
	}
	return s.identities[n], nil
}

func (s *realSystem) Verify(signer trace.NodeID, data []byte, sig Signature) bool {
	if int(signer) < 0 || int(signer) >= len(s.identities) {
		return false
	}
	return ed25519.Verify(s.identities[signer].signPub, data, sig)
}

// SealFor hybrid-encrypts: an ephemeral X25519 key agreement derives an
// AES-256-GCM key; the wire format is ephemeralPub || nonce || ciphertext.
func (s *realSystem) SealFor(dest trace.NodeID, plaintext []byte) ([]byte, error) {
	if int(dest) < 0 || int(dest) >= len(s.identities) {
		return nil, fmt.Errorf("%w: %d", ErrUnknownNode, dest)
	}
	eph, err := s.newBoxKey()
	if err != nil {
		return nil, fmt.Errorf("g2gcrypto: ephemeral key: %w", err)
	}
	shared, err := eph.ECDH(s.identities[dest].boxPub)
	if err != nil {
		return nil, fmt.Errorf("g2gcrypto: ecdh: %w", err)
	}
	gcm, err := newGCM(sha256.Sum256(shared))
	if err != nil {
		return nil, err
	}
	nonce := s.draw(gcm.NonceSize())
	out := make([]byte, 0, 32+len(nonce)+len(plaintext)+gcm.Overhead())
	out = append(out, eph.PublicKey().Bytes()...)
	out = append(out, nonce...)
	return gcm.Seal(out, nonce, plaintext, nil), nil
}

func (id *realIdentity) Node() trace.NodeID { return id.node }

func (id *realIdentity) Sign(data []byte) Signature {
	return ed25519.Sign(id.signKey, data)
}

func (id *realIdentity) Open(box []byte) ([]byte, error) {
	curve := ecdh.X25519()
	const pubLen = 32
	if len(box) < pubLen {
		return nil, ErrBadCiphertext
	}
	ephPub, err := curve.NewPublicKey(box[:pubLen])
	if err != nil {
		return nil, ErrBadCiphertext
	}
	shared, err := id.boxKey.ECDH(ephPub)
	if err != nil {
		return nil, ErrBadCiphertext
	}
	gcm, err := newGCM(sha256.Sum256(shared))
	if err != nil {
		return nil, err
	}
	rest := box[pubLen:]
	if len(rest) < gcm.NonceSize() {
		return nil, ErrBadCiphertext
	}
	nonce, ct := rest[:gcm.NonceSize()], rest[gcm.NonceSize():]
	pt, err := gcm.Open(nil, nonce, ct, nil)
	if err != nil {
		return nil, ErrBadCiphertext
	}
	return pt, nil
}

func newGCM(key [32]byte) (cipher.AEAD, error) {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, fmt.Errorf("g2gcrypto: aes: %w", err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("g2gcrypto: gcm: %w", err)
	}
	return gcm, nil
}

// PayloadNonceSize is the length of the nonce EncryptPayload reads from its
// randomness and puts ahead of the ciphertext; payloadTagSize is the GCM
// tag that follows the ciphertext.
const (
	PayloadNonceSize = 12
	payloadTagSize   = 16
)

// EncryptedSize is the length of EncryptPayload's output for a plaintext of
// n bytes.
func EncryptedSize(n int) int { return PayloadNonceSize + n + payloadTagSize }

// EncryptPayload implements the Ek(m) step of the relay phase: message m is
// handed over under a fresh random key k that is revealed only after the
// proof of relay is signed. AES-256-GCM; wire format nonce || ciphertext ||
// tag, EncryptedSize(len(plaintext)) bytes. The nonce is read from
// randomness, the run's seeded stream in a simulation.
func EncryptPayload(key SessionKey, plaintext []byte, randomness io.Reader) ([]byte, error) {
	gcm, err := newGCM(key)
	if err != nil {
		return nil, err
	}
	nonce := make([]byte, PayloadNonceSize)
	if _, err := io.ReadFull(randomness, nonce); err != nil {
		return nil, fmt.Errorf("g2gcrypto: nonce: %w", err)
	}
	return gcm.Seal(nonce, nonce, plaintext, nil), nil
}

// DecryptPayload reverses EncryptPayload once the key is revealed.
func DecryptPayload(key SessionKey, box []byte) ([]byte, error) {
	gcm, err := newGCM(key)
	if err != nil {
		return nil, err
	}
	if len(box) < gcm.NonceSize() {
		return nil, ErrBadCiphertext
	}
	pt, err := gcm.Open(nil, box[:gcm.NonceSize()], box[gcm.NonceSize():], nil)
	if err != nil {
		return nil, ErrBadCiphertext
	}
	return pt, nil
}
