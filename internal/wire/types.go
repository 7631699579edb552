package wire

import (
	"fmt"

	"give2get/internal/g2gcrypto"
	"give2get/internal/message"
	"give2get/internal/sim"
	"give2get/internal/trace"
)

// RelayRequest is step 1 of the relay phase: A asks B whether it has already
// handled the message with hash H(m).
type RelayRequest struct {
	Hash g2gcrypto.Digest
}

// Kind implements Body.
func (RelayRequest) Kind() Kind { return KindRelayRequest }

// MarshalBody implements Body.
func (r RelayRequest) MarshalBody(dst []byte) []byte { return appendDigest(dst, r.Hash) }

// RelayOK is step 2: B accepts the relay offer (it has never seen H(m)).
type RelayOK struct {
	Hash g2gcrypto.Digest
}

// Kind implements Body.
func (RelayOK) Kind() Kind { return KindRelayOK }

// MarshalBody implements Body.
func (r RelayOK) MarshalBody(dst []byte) []byte { return appendDigest(dst, r.Hash) }

// RelayDecline is the alternative step 2: B has already handled H(m) and
// must not be chosen as a relay.
type RelayDecline struct {
	Hash g2gcrypto.Digest
}

// Kind implements Body.
func (RelayDecline) Kind() Kind { return KindRelayDecline }

// MarshalBody implements Body.
func (r RelayDecline) MarshalBody(dst []byte) []byte { return appendDigest(dst, r.Hash) }

// RelayTransfer is step 3: A hands over the message encrypted under a fresh
// key k (revealed only after the PoR). FM is the message's forwarding
// quality label; epidemic forwarding leaves it zero. GenAt is the message's
// generation time, which relays use to anchor the Δ1/Δ2 timeouts (it plays
// the role of the TTL field in the paper's simulations).
type RelayTransfer struct {
	Hash      g2gcrypto.Digest
	FM        message.Quality
	GenAt     sim.Time
	Encrypted []byte
	// Attachments carry the sender's embedded failed-relay declarations
	// (signed FQ_RESPs) toward the destination for the test-by-destination
	// audit of Section VI-A. They ride outside the payload encryption:
	// they are signed statements and reveal nothing the relay phase hides.
	Attachments []Signed
}

// Kind implements Body.
func (RelayTransfer) Kind() Kind { return KindRelayTransfer }

// MarshalBody implements Body.
func (r RelayTransfer) MarshalBody(dst []byte) []byte {
	dst = appendDigest(dst, r.Hash)
	dst = appendQuality(dst, r.FM)
	dst = appendInt64(dst, int64(r.GenAt))
	dst = appendBytes(dst, r.Encrypted)
	dst = append(dst, byte(len(r.Attachments)))
	for _, a := range r.Attachments {
		dst = appendBytes(dst, a.Marshal())
	}
	return dst
}

// ProofOfRelay is step 4: B's signed acknowledgement that it took custody of
// H(m) from A. In G2G Epidemic only Hash/From/To are meaningful; G2G
// Delegation additionally records the decoy-or-real destination D', the
// message quality f_m at handoff, the quality f_BD that B claimed, and the
// timeframe that quality was computed in.
type ProofOfRelay struct {
	Hash   g2gcrypto.Digest
	From   trace.NodeID
	To     trace.NodeID
	DPrime trace.NodeID
	FM     message.Quality
	FBD    message.Quality
	Frame  message.FrameIndex
}

// Kind implements Body.
func (ProofOfRelay) Kind() Kind { return KindProofOfRelay }

// MarshalBody implements Body.
func (p ProofOfRelay) MarshalBody(dst []byte) []byte {
	dst = appendDigest(dst, p.Hash)
	dst = appendNode(dst, p.From)
	dst = appendNode(dst, p.To)
	dst = appendNode(dst, p.DPrime)
	dst = appendQuality(dst, p.FM)
	dst = appendQuality(dst, p.FBD)
	return appendInt64(dst, int64(p.Frame))
}

// KeyReveal is step 5: A releases the payload key, letting B discover
// whether it is the destination or just a relay.
type KeyReveal struct {
	Hash g2gcrypto.Digest
	Key  g2gcrypto.SessionKey
}

// Kind implements Body.
func (KeyReveal) Kind() Kind { return KindKeyReveal }

// MarshalBody implements Body.
func (k KeyReveal) MarshalBody(dst []byte) []byte {
	dst = appendDigest(dst, k.Hash)
	return append(dst, k.Key[:]...)
}

// PORChallenge starts the test phase (Fig. 2): the sender challenges a
// former relay with a random seed.
type PORChallenge struct {
	Hash g2gcrypto.Digest
	Seed [16]byte
}

// Kind implements Body.
func (PORChallenge) Kind() Kind { return KindPORChallenge }

// MarshalBody implements Body.
func (c PORChallenge) MarshalBody(dst []byte) []byte {
	dst = appendDigest(dst, c.Hash)
	return append(dst, c.Seed[:]...)
}

// PORResponse answers the challenge with the two proofs of relay collected
// from the nodes the message was passed on to.
type PORResponse struct {
	First, Second Signed // each wraps a ProofOfRelay
}

// Kind implements Body.
func (PORResponse) Kind() Kind { return KindPORResponse }

// MarshalBody implements Body.
func (r PORResponse) MarshalBody(dst []byte) []byte {
	dst = appendBytes(dst, r.First.Marshal())
	return appendBytes(dst, r.Second.Marshal())
}

// StoredResponse is the alternative answer: the relay proves it still stores
// the full message by computing the heavy HMAC over it with the challenge
// seed.
type StoredResponse struct {
	Hash g2gcrypto.Digest
	Seed [16]byte
	MAC  g2gcrypto.Digest
}

// Kind implements Body.
func (StoredResponse) Kind() Kind { return KindStored }

// MarshalBody implements Body.
func (s StoredResponse) MarshalBody(dst []byte) []byte {
	dst = appendDigest(dst, s.Hash)
	dst = append(dst, s.Seed[:]...)
	return appendDigest(dst, s.MAC)
}

// FQRequest is step 8 of the G2G Delegation relay phase: A asks B its
// forwarding quality toward D' (the real destination, or a random decoy when
// B is the destination).
type FQRequest struct {
	Hash   g2gcrypto.Digest
	DPrime trace.NodeID
}

// Kind implements Body.
func (FQRequest) Kind() Kind { return KindFQRequest }

// MarshalBody implements Body.
func (f FQRequest) MarshalBody(dst []byte) []byte {
	dst = appendDigest(dst, f.Hash)
	return appendNode(dst, f.DPrime)
}

// FQResponse is step 9: B's signed quality claim. The quality is the one
// computed in the last completed timeframe (identified by Frame), so the
// destination can audit it against its own symmetric record.
type FQResponse struct {
	Responder trace.NodeID
	DPrime    trace.NodeID
	FQ        message.Quality
	Frame     message.FrameIndex
}

// Kind implements Body.
func (FQResponse) Kind() Kind { return KindFQResponse }

// MarshalBody implements Body.
func (f FQResponse) MarshalBody(dst []byte) []byte {
	dst = appendNode(dst, f.Responder)
	dst = appendNode(dst, f.DPrime)
	dst = appendQuality(dst, f.FQ)
	return appendInt64(dst, int64(f.Frame))
}

// MisbehaviorReason classifies a proof of misbehavior.
type MisbehaviorReason uint8

// Misbehavior reasons.
const (
	// ReasonDropped: the accused signed a PoR but could neither produce two
	// onward PoRs nor the heavy-HMAC storage proof.
	ReasonDropped MisbehaviorReason = iota + 1
	// ReasonLied: the accused signed an FQ_RESP whose quality contradicts
	// the destination's symmetric record for that timeframe.
	ReasonLied
	// ReasonCheated: the accused relayed a message whose quality label
	// contradicts the chain condition f_AD = f_m¹ < f_BD = f_m² < f_CD.
	ReasonCheated
)

func (r MisbehaviorReason) String() string {
	switch r {
	case ReasonDropped:
		return "dropped"
	case ReasonLied:
		return "lied"
	case ReasonCheated:
		return "cheated"
	default:
		return fmt.Sprintf("MisbehaviorReason(%d)", uint8(r))
	}
}

// Misbehavior is the broadcast proof that evicts a node. Evidence[0] is a
// statement signed by the accused (a PoR or FQ_RESP); for cheating, a second
// document — the next relay's PoR contradicting the accused's quality label
// — completes the proof. Honest nodes check the signatures locally before
// blacklisting.
type Misbehavior struct {
	Accused  trace.NodeID
	Reason   MisbehaviorReason
	Evidence []Signed
}

// Kind implements Body.
func (Misbehavior) Kind() Kind { return KindMisbehavior }

// MarshalBody implements Body.
func (m Misbehavior) MarshalBody(dst []byte) []byte {
	dst = appendNode(dst, m.Accused)
	dst = append(dst, byte(m.Reason))
	dst = append(dst, byte(len(m.Evidence)))
	for _, e := range m.Evidence {
		dst = appendBytes(dst, e.Marshal())
	}
	return dst
}

// ValidEvidence reports whether the PoM's embedded evidence is usable: the
// first document must be genuinely signed by the accused and every document
// must verify, through sc, against sys. A PoM failing this check must be
// ignored (a malicious reporter cannot frame a faithful node).
func (m Misbehavior) ValidEvidence(sc *Scratch, sys g2gcrypto.System) bool {
	if len(m.Evidence) == 0 || m.Evidence[0].Signer != m.Accused {
		return false
	}
	for _, e := range m.Evidence {
		if !sc.Verify(sys, e) {
			return false
		}
	}
	return true
}

// unmarshalBody decodes a payload of the given kind.
func unmarshalBody(kind Kind, data []byte) (Body, error) {
	switch kind {
	case KindRelayRequest:
		d, rest, err := readDigest(data)
		if err != nil || len(rest) != 0 {
			return nil, ErrTruncated
		}
		return RelayRequest{Hash: d}, nil
	case KindRelayOK:
		d, rest, err := readDigest(data)
		if err != nil || len(rest) != 0 {
			return nil, ErrTruncated
		}
		return RelayOK{Hash: d}, nil
	case KindRelayDecline:
		d, rest, err := readDigest(data)
		if err != nil || len(rest) != 0 {
			return nil, ErrTruncated
		}
		return RelayDecline{Hash: d}, nil
	case KindRelayTransfer:
		d, rest, err := readDigest(data)
		if err != nil {
			return nil, err
		}
		fm, rest, err := readQuality(rest)
		if err != nil {
			return nil, err
		}
		genAt, rest, err := readInt64(rest)
		if err != nil {
			return nil, err
		}
		enc, rest, err := readBytes(rest)
		if err != nil {
			return nil, err
		}
		if len(rest) < 1 {
			return nil, ErrTruncated
		}
		count := int(rest[0])
		rest = rest[1:]
		var attachments []Signed
		for i := 0; i < count; i++ {
			var raw []byte
			raw, rest, err = readBytes(rest)
			if err != nil {
				return nil, err
			}
			a, err := UnmarshalSigned(raw)
			if err != nil {
				return nil, err
			}
			attachments = append(attachments, a)
		}
		if len(rest) != 0 {
			return nil, ErrTruncated
		}
		return RelayTransfer{
			Hash: d, FM: fm, GenAt: sim.Time(genAt),
			Encrypted: enc, Attachments: attachments,
		}, nil
	case KindProofOfRelay:
		return unmarshalPOR(data)
	case KindKeyReveal:
		d, rest, err := readDigest(data)
		if err != nil {
			return nil, err
		}
		var k KeyReveal
		k.Hash = d
		if len(rest) != len(k.Key) {
			return nil, ErrTruncated
		}
		copy(k.Key[:], rest)
		return k, nil
	case KindPORChallenge:
		d, rest, err := readDigest(data)
		if err != nil {
			return nil, err
		}
		var c PORChallenge
		c.Hash = d
		if len(rest) != len(c.Seed) {
			return nil, ErrTruncated
		}
		copy(c.Seed[:], rest)
		return c, nil
	case KindPORResponse:
		firstRaw, rest, err := readBytes(data)
		if err != nil {
			return nil, err
		}
		secondRaw, rest, err := readBytes(rest)
		if err != nil || len(rest) != 0 {
			return nil, ErrTruncated
		}
		first, err := UnmarshalSigned(firstRaw)
		if err != nil {
			return nil, err
		}
		second, err := UnmarshalSigned(secondRaw)
		if err != nil {
			return nil, err
		}
		return PORResponse{First: first, Second: second}, nil
	case KindStored:
		d, rest, err := readDigest(data)
		if err != nil {
			return nil, err
		}
		var s StoredResponse
		s.Hash = d
		if len(rest) != len(s.Seed)+len(s.MAC) {
			return nil, ErrTruncated
		}
		copy(s.Seed[:], rest)
		mac, _, err := readDigest(rest[len(s.Seed):])
		if err != nil {
			return nil, err
		}
		s.MAC = mac
		return s, nil
	case KindFQRequest:
		d, rest, err := readDigest(data)
		if err != nil {
			return nil, err
		}
		n, rest, err := readNode(rest)
		if err != nil || len(rest) != 0 {
			return nil, ErrTruncated
		}
		return FQRequest{Hash: d, DPrime: n}, nil
	case KindFQResponse:
		responder, rest, err := readNode(data)
		if err != nil {
			return nil, err
		}
		dPrime, rest, err := readNode(rest)
		if err != nil {
			return nil, err
		}
		fq, rest, err := readQuality(rest)
		if err != nil {
			return nil, err
		}
		frame, rest, err := readInt64(rest)
		if err != nil || len(rest) != 0 {
			return nil, ErrTruncated
		}
		return FQResponse{Responder: responder, DPrime: dPrime, FQ: fq, Frame: message.FrameIndex(frame)}, nil
	case KindMisbehavior:
		accused, rest, err := readNode(data)
		if err != nil {
			return nil, err
		}
		if len(rest) < 2 {
			return nil, ErrTruncated
		}
		reason := MisbehaviorReason(rest[0])
		count := int(rest[1])
		rest = rest[2:]
		evidence := make([]Signed, 0, count)
		for i := 0; i < count; i++ {
			var raw []byte
			raw, rest, err = readBytes(rest)
			if err != nil {
				return nil, err
			}
			e, err := UnmarshalSigned(raw)
			if err != nil {
				return nil, err
			}
			evidence = append(evidence, e)
		}
		if len(rest) != 0 {
			return nil, ErrTruncated
		}
		return Misbehavior{Accused: accused, Reason: reason, Evidence: evidence}, nil
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownKind, kind)
	}
}

func unmarshalPOR(data []byte) (Body, error) {
	d, rest, err := readDigest(data)
	if err != nil {
		return nil, err
	}
	from, rest, err := readNode(rest)
	if err != nil {
		return nil, err
	}
	to, rest, err := readNode(rest)
	if err != nil {
		return nil, err
	}
	dPrime, rest, err := readNode(rest)
	if err != nil {
		return nil, err
	}
	fm, rest, err := readQuality(rest)
	if err != nil {
		return nil, err
	}
	fbd, rest, err := readQuality(rest)
	if err != nil {
		return nil, err
	}
	frame, rest, err := readInt64(rest)
	if err != nil || len(rest) != 0 {
		return nil, ErrTruncated
	}
	return ProofOfRelay{
		Hash: d, From: from, To: to, DPrime: dPrime,
		FM: fm, FBD: fbd, Frame: message.FrameIndex(frame),
	}, nil
}
