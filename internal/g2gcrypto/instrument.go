package g2gcrypto

import (
	"fmt"
	"time"

	"give2get/internal/obs"
	"give2get/internal/trace"
)

// Instrument wraps sys so that every primitive records its count and wall
// time into st. A nil st returns sys unchanged; the wrapper is otherwise
// transparent — it changes no bytes, so instrumented runs stay deterministic
// in virtual time.
func Instrument(sys System, st *obs.CryptoStats) System {
	if st == nil || sys == nil {
		return sys
	}
	st.SetProvider(sys.Name())
	return &instrumentedSystem{inner: sys, stats: st, ids: make([]*instrumentedIdentity, sys.Nodes())}
}

type instrumentedSystem struct {
	inner System
	stats *obs.CryptoStats
	ids   []*instrumentedIdentity // one wrapper per node, made on first use
}

func (s *instrumentedSystem) Name() string { return s.inner.Name() }
func (s *instrumentedSystem) Nodes() int   { return s.inner.Nodes() }

func (s *instrumentedSystem) Identity(n trace.NodeID) (Identity, error) {
	if int(n) < 0 || int(n) >= len(s.ids) {
		return nil, fmt.Errorf("%w: %d", ErrUnknownNode, n)
	}
	if s.ids[n] == nil {
		id, err := s.inner.Identity(n)
		if err != nil {
			return nil, err
		}
		s.ids[n] = &instrumentedIdentity{inner: id, stats: s.stats}
	}
	return s.ids[n], nil
}

func (s *instrumentedSystem) Verify(signer trace.NodeID, data []byte, sig Signature) bool {
	if !s.stats.Timed() {
		ok := s.inner.Verify(signer, data, sig)
		s.stats.NoteVerify(0)
		return ok
	}
	start := time.Now()
	ok := s.inner.Verify(signer, data, sig)
	s.stats.NoteVerify(time.Since(start))
	return ok
}

func (s *instrumentedSystem) SealFor(dest trace.NodeID, plaintext []byte) ([]byte, error) {
	if !s.stats.Timed() {
		box, err := s.inner.SealFor(dest, plaintext)
		s.stats.NoteSeal(0)
		return box, err
	}
	start := time.Now()
	box, err := s.inner.SealFor(dest, plaintext)
	s.stats.NoteSeal(time.Since(start))
	return box, err
}

type instrumentedIdentity struct {
	inner Identity
	stats *obs.CryptoStats
}

func (id *instrumentedIdentity) Node() trace.NodeID { return id.inner.Node() }

func (id *instrumentedIdentity) Sign(data []byte) Signature {
	if !id.stats.Timed() {
		sig := id.inner.Sign(data)
		id.stats.NoteSign(0)
		return sig
	}
	start := time.Now()
	sig := id.inner.Sign(data)
	id.stats.NoteSign(time.Since(start))
	return sig
}

func (id *instrumentedIdentity) Open(box []byte) ([]byte, error) {
	if !id.stats.Timed() {
		out, err := id.inner.Open(box)
		id.stats.NoteOpen(0)
		return out, err
	}
	start := time.Now()
	out, err := id.inner.Open(box)
	id.stats.NoteOpen(time.Since(start))
	return out, err
}
