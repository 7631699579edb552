package protocol

import (
	"crypto/hmac"
	"slices"

	"give2get/internal/g2gcrypto"
	"give2get/internal/message"
	"give2get/internal/obs"
	"give2get/internal/sim"
	"give2get/internal/trace"
	"give2get/internal/wire"
)

// g2gNode implements both Give2Get protocols. G2G Epidemic Forwarding
// (Section IV) is the relay phase of Fig. 1 (encrypt-then-reveal handoffs
// producing signed proofs of relay), the sender-driven test phase of Fig. 2
// (two PoRs or a heavy-HMAC storage proof), the Δ1/Δ2 timeouts, and
// proof-of-misbehavior broadcasts. G2G Delegation Forwarding (Sections
// VI–VII, Fig. 6) reuses all of it and differs in five steps, each a branch
// on del: the offer handshake (FQ_RQST/FQ_RESP with destination decoys
// instead of RELAY_RQST/RELAY_OK), the FQ claim a RELAY is accepted under,
// the sender's chain audit f_AD = f_m¹ < f_BD = f_m² < f_CD, the
// destination's audit of the failed-relay declarations a copy carries, and
// the quality bookkeeping (timeframed snapshots, labels updated only on
// forwarding).
type g2gNode struct {
	base
	// custody holds every message this node has handled until Δ2, so it
	// doubles as the paper's seen set: the offer handshake and RELAY answer
	// from it.
	custody map[g2gcrypto.Digest]*g2gCustody
	// tests holds, per message this node originated, the relays it must
	// challenge after Δ1.
	tests map[g2gcrypto.Digest][]*pendingTest
	// pendingIn holds relay-phase handoffs between the RELAY and KEY steps.
	pendingIn map[g2gcrypto.Digest]*pendingTransfer
	// testsOrder mirrors the tests keys in sorted order (see orderedInsert);
	// the test phase iterates it instead of re-sorting per contact.
	testsOrder []g2gcrypto.Digest
	// relayable holds, in byte-wise hash order, the copies a relay phase
	// may still offer. takeCustody files every copy that is not spent,
	// and each scan drops the ones spent or past Δ1 since; neither ever
	// reverts.
	relayable []*g2gCustody
	// mem is the buffer part of MemoryBytes, kept up to date on every
	// buffer change; expireAt is the earliest genAt+Δ2 in custody, before
	// which expire has nothing to drop (zero forces a walk).
	mem      int64
	expireAt sim.Time
	// del is G2G Delegation's own state; nil for G2G Epidemic.
	del *delegation
}

// delegation is the state only a G2G Delegation node keeps.
type delegation struct {
	quality *qualityTable
	// fqResp memoizes, per D′, this node's last FQ_RESP about it. The reply
	// names neither the requester nor the message, so every peer asking
	// about one D′ at one instant is answered with the same signed bytes.
	fqResp map[trace.NodeID]*wire.SignMemo
	// claim is the FQ_RESP this node issued in the exchange under way, so
	// the PoR it signs moments later is consistent with it. It answers only
	// the RELAY of that exchange: the requester's relayOne drops it on
	// return, so no claim outlives the exchange that made it.
	claim fqClaim
	// audited tracks (responder, frame) pairs this destination has already
	// audited, so one liar is not reported once per arriving copy.
	audited map[auditKey]struct{}
}

// fqClaim is one issued FQ_RESP, bound to the message and the requester it
// answered.
type fqClaim struct {
	hash      g2gcrypto.Digest
	requester trace.NodeID
	resp      wire.FQResponse
	valid     bool
}

type auditKey struct {
	responder trace.NodeID
	frame     message.FrameIndex
}

// g2gCustody is this node's state for one message it has handled. The
// fields a relay scan and an offer read come first.
type g2gCustody struct {
	msg   *message.Message
	raw   []byte // marshalled message: heavy-HMAC input; nil once discardable
	hash  g2gcrypto.Digest
	genAt sim.Time
	// isSource marks the originator (it runs the test phase and keeps raw
	// until Δ2 to verify storage proofs).
	isSource bool
	// isDest marks the destination (it neither relays on nor is tested).
	isDest bool
	// dropped marks a deviating custodian that discarded the payload.
	dropped bool
	// relayCount counts handoffs to non-destination relays: deliveries to
	// the destination do not consume the fan-out budget. It is 32 bits wide
	// to share a word with the flags.
	relayCount int32
	// relayedTo lists the peers this copy was handed to; a relay's holds at
	// most MaxRelays+1, and only membership matters.
	relayedTo []trace.NodeID
	// offer is the copy's offer record. It is made by the first offer and
	// released when the copy leaves the relayable list, since it is never
	// offered again.
	offer *offerRecord
	// pors are the proofs of relay collected from onward handoffs; they are
	// this node's defence in the test phase.
	pors []wire.Signed
	// del is the copy's G2G Delegation state; nil under G2G Epidemic.
	del *copyDelegation
}

// offerRecord is what a copy remembers of its own offers. Its request —
// RELAY_RQST, or FQ_RQST about the real destination (a decoy differs every
// time and never uses the record) — names no peer, so every offer of the
// copy at one instant signs the same bytes: the body is boxed once, and
// rqst memoizes the last signature. Both providers sign deterministically,
// so an exchange repeated at one instant, between the same two nodes, about
// the same copy, with the same answer, repeats byte-identical envelopes;
// the record answers such a repeat, which reaches it only past the
// blacklist checks, charging what the recorded exchange cost.
//
// Under G2G Epidemic it keeps the peers that declined the copy at the
// instant at. A peer declines because it holds the message, and custody
// keeps it until genAt+Δ2, after the last offer at genAt+Δ1, so a repeat of
// the offer at that instant is declined again; a decline calls no observer
// and draws no RNG.
//
// Under G2G Delegation it keeps the FQ_RESP each peer answered the copy's
// FQ_RQST with at the instant at. The answer is the peer's reported quality
// and frame, which a meeting observed at that instant can change, so a
// repeat is answered from the record only while the peer's answer,
// recomputed, is the recorded one (see exchangeFQ).
type offerRecord struct {
	rqst     wire.SignMemo
	body     wire.Body
	at       sim.Time
	declined []trace.NodeID
	answers  []wire.Signed
	// rqstSize and answerSize are the wire sizes of the recorded request
	// and answer envelopes: RELAY_RQST and RELAY_DECLINE, or FQ_RQST and
	// FQ_RESP.
	rqstSize, answerSize int32
}

// declinedBy reports whether peer declined the copy's offer at now.
func (o *offerRecord) declinedBy(now sim.Time, peer trace.NodeID) bool {
	return o.at == now && slices.Contains(o.declined, peer)
}

// answerOf returns peer's recorded FQ_RESP to the copy's FQ_RQST at now.
func (o *offerRecord) answerOf(now sim.Time, peer trace.NodeID) (wire.Signed, bool) {
	if o.at == now {
		for _, a := range o.answers {
			if a.Signer == peer {
				return a, true
			}
		}
	}
	return wire.Signed{}, false
}

// note records the sizes of an exchange of envelopes req and ack at now. A
// new instant starts new lists.
func (o *offerRecord) note(now sim.Time, req, ack wire.Signed) {
	if o.at != now {
		clear(o.answers)
		o.at, o.declined, o.answers = now, o.declined[:0], o.answers[:0]
	}
	o.rqstSize, o.answerSize = int32(wire.SizeOf(req)), int32(wire.SizeOf(ack))
}

// noteDecline records that peer declined the copy's offer at now, in an
// exchange of envelopes req and ack.
func (o *offerRecord) noteDecline(now sim.Time, peer trace.NodeID, req, ack wire.Signed) {
	o.note(now, req, ack)
	o.declined = append(o.declined, peer)
}

// noteAnswer records the FQ_RESP ack its signer answered the copy's FQ_RQST
// req with at now, in place of an earlier answer of that instant.
func (o *offerRecord) noteAnswer(now sim.Time, req, ack wire.Signed) {
	o.note(now, req, ack)
	for i, a := range o.answers {
		if a.Signer == ack.Signer {
			o.answers[i] = ack
			return
		}
	}
	o.answers = append(o.answers, ack)
}

// copyDelegation is the state only a G2G Delegation copy keeps. It sits
// behind a pointer so that a G2G Epidemic copy stays at 144 bytes.
type copyDelegation struct {
	// fm is the message's quality label.
	fm message.Quality
	// failedFQ are the signed FQ_RESPs of the last two peers that failed to
	// qualify as the source's relays: recorded on the source's copy, and
	// carried by every copy handed on, for the destination's audit.
	failedFQ []wire.Signed
}

// terms are what the offer handshake settles for one handoff. Under G2G
// Delegation: the label the RELAY presents, the declarations it carries
// (the copy's own; the source's RELAY carries a copy of them), and the
// peer's FQ_RESP, which the PoR must repeat and whose quality becomes the
// label of both copies; they stay zero under G2G Epidemic. sigLen is the
// length of the signature on the peer's answer, which a RELAY's signature
// shares.
type terms struct {
	fm          message.Quality
	attachments []wire.Signed
	claim       wire.FQResponse
	sigLen      int
}

type pendingTest struct {
	relay trace.NodeID
	por   wire.Signed // the relay's handoff PoR: the PoM evidence if it fails
	// labelGiven is the quality the relay claimed at handoff, which became
	// the label of both copies: the anchor of the sender's chain audit.
	labelGiven message.Quality
	tested     bool
}

type pendingTransfer struct {
	from        trace.NodeID
	fm          message.Quality
	genAt       sim.Time
	encrypted   []byte
	attachments []wire.Signed
}

var _ Node = (*g2gNode)(nil)

func newG2GNode(env *Env, self g2gcrypto.Identity, behavior Behavior, kind Kind) *g2gNode {
	n := &g2gNode{
		base:      newBase(env, self, behavior, kind),
		custody:   make(map[g2gcrypto.Digest]*g2gCustody),
		tests:     make(map[g2gcrypto.Digest][]*pendingTest),
		pendingIn: make(map[g2gcrypto.Digest]*pendingTransfer),
	}
	if kind.IsDelegation() {
		n.del = &delegation{
			quality: newQualityTable(env.Params.QualityFrame),
			fqResp:  make(map[trace.NodeID]*wire.SignMemo),
			audited: make(map[auditKey]struct{}),
		}
	}
	return n
}

// Generate implements Node. Under G2G Delegation the fresh message is
// labelled with the sender's current quality toward the destination,
// exactly like vanilla Delegation; the sender-test chain is anchored at the
// first relay's claim, so the initial label needs no frame snapshotting.
func (n *g2gNode) Generate(now sim.Time, dest trace.NodeID, body []byte) error {
	m, id, err := n.newMessage(dest, body)
	if err != nil {
		return err
	}
	h := m.Hash()
	c := &g2gCustody{msg: m, raw: m.Marshal(), hash: h, genAt: now, isSource: true}
	if n.del != nil {
		c.del = &copyDelegation{fm: n.del.quality.qualityAt(dest, now, n.kind.UsesFrequency())}
	}
	n.takeCustody(c)
	n.env.Observer.Generated(h, id, n.ID(), dest, now)
	return nil
}

// ObserveMeeting implements Node. G2G Epidemic keeps no quality state.
func (n *g2gNode) ObserveMeeting(now sim.Time, peer trace.NodeID) {
	if n.del == nil {
		return
	}
	n.noteQualityUpdate()
	n.del.quality.observe(now, peer)
}

// DeliverPoM implements Node.
func (n *g2gNode) DeliverPoM(pom wire.Signed) { n.acceptPoM(pom) }

// RunSession implements Node: first the test phase for any pending
// challenges against this peer, then the relay phase.
func (n *g2gNode) RunSession(now sim.Time, peer Node) bool {
	n.mustMatch(peer)
	other := peer.(*g2gNode)
	n.expire(now)
	n.testPhase(now, other)
	return n.relayPhase(now, other)
}

// --- test phase (Fig. 2; Section VI-B) ---

func (n *g2gNode) testPhase(now sim.Time, other *g2gNode) {
	n.env.spans.Enter(obs.SpanTest)
	defer n.env.spans.Exit()
	n.digestScratch = append(n.digestScratch[:0], n.testsOrder...)
	for _, h := range n.digestScratch {
		pending := n.tests[h]
		c, ok := n.custody[h]
		if !ok {
			continue
		}
		// Only the source tests, and only inside the (Δ1, Δ2) window.
		if now < c.genAt.Add(n.env.Params.Delta1) || now >= c.genAt.Add(n.env.Params.Delta2) {
			continue
		}
		for _, pt := range pending {
			if pt.tested || pt.relay != other.ID() {
				continue
			}
			pt.tested = true
			n.noteTestStarted()
			var seed [16]byte
			n.env.RNG.Bytes(seed[:])
			challenge := n.signed(now, wire.PORChallenge{Hash: h, Seed: seed})
			// The PoR span covers both sides of the proof: the challenged
			// relay producing it and the source verifying it.
			n.env.spans.Enter(obs.SpanPoR)
			resp, answered := other.handlePORChallenge(now, challenge)
			passed := answered && n.evaluateTestResponse(c, other.ID(), seed, resp)
			var cheated []wire.Signed
			if passed && n.del != nil {
				cheated = n.auditChain(c, pt, resp)
				passed = cheated == nil
			}
			n.env.spans.Exit()
			n.noteTested(passed)
			n.env.Observer.Tested(other.ID(), passed, now)
			ttl := c.genAt.Add(n.env.Params.Delta1)
			if cheated != nil {
				n.reportMisbehavior(now, other.ID(), wire.ReasonCheated, cheated, h, ttl)
			} else if !passed {
				n.reportMisbehavior(now, other.ID(), wire.ReasonDropped, []wire.Signed{pt.por}, h, ttl)
			}
		}
	}
}

// evaluateTestResponse checks a challenge answer: either two verifiable
// proofs of relay for this message, or the heavy HMAC over the full message
// under the challenge seed.
func (n *g2gNode) evaluateTestResponse(c *g2gCustody, relay trace.NodeID,
	seed [16]byte, resp wire.Signed) bool {

	if resp.Signer != relay || !n.verified(resp) {
		return false
	}
	switch body := resp.Body.(type) {
	case wire.PORResponse:
		return n.validPORPair(c, relay, body)
	case wire.StoredResponse:
		if body.Hash != c.hash || body.Seed != seed || c.raw == nil {
			return false
		}
		mac := n.heavyHMAC(c.raw, seed[:], n.env.Params.HeavyHMACIterations)
		return hmac.Equal(mac[:], body.MAC[:])
	default:
		return false
	}
}

func (n *g2gNode) validPORPair(c *g2gCustody, relay trace.NodeID, resp wire.PORResponse) bool {
	first, ok1 := resp.First.Body.(wire.ProofOfRelay)
	second, ok2 := resp.Second.Body.(wire.ProofOfRelay)
	if !ok1 || !ok2 {
		return false
	}
	if !n.verified(resp.First) || !n.verified(resp.Second) {
		return false
	}
	// Each PoR must be signed by the node it names as the new custodian.
	if resp.First.Signer != first.To || resp.Second.Signer != second.To {
		return false
	}
	if first.Hash != c.hash || second.Hash != c.hash {
		return false
	}
	if first.From != relay || second.From != relay {
		return false
	}
	// Two *distinct* onward relays, neither being the relay itself.
	if first.To == second.To || first.To == relay || second.To == relay {
		return false
	}
	return true
}

// auditChain is G2G Delegation's chain audit of an answer that passed
// evaluateTestResponse: f_AD = f_m¹ < f_BD = f_m² < f_CD, where the label
// the relay took at handoff anchors the chain. Hops that deliver to the
// true destination are exempt from the strict-increase rule (delivery is
// always allowed), but the label continuity must hold. It returns the PoM
// evidence of a broken chain, or nil for a storage proof or a sound chain.
func (n *g2gNode) auditChain(c *g2gCustody, pt *pendingTest, resp wire.Signed) []wire.Signed {
	pair, ok := resp.Body.(wire.PORResponse)
	if !ok {
		return nil
	}
	expected := pt.labelGiven
	for _, s := range [...]wire.Signed{pair.First, pair.Second} {
		hop := s.Body.(wire.ProofOfRelay) // validPORPair checked both bodies
		if hop.FM != expected || (hop.To != c.msg.Dest && !hop.FBD.Better(hop.FM)) {
			return []wire.Signed{pt.por, pair.First, pair.Second}
		}
		expected = hop.FBD
	}
	return nil
}

// handlePORChallenge is the challenged node's side: produce two PoRs, or the
// storage proof, or fail. Like every handler it answers by value, reporting
// whether it answered at all.
func (n *g2gNode) handlePORChallenge(now sim.Time, challenge wire.Signed) (wire.Signed, bool) {
	body, ok := challenge.Body.(wire.PORChallenge)
	if !ok || !n.verified(challenge) {
		return wire.Signed{}, false
	}
	c, ok := n.custody[body.Hash]
	if !ok {
		return wire.Signed{}, false
	}
	if len(c.pors) >= 2 {
		return n.signed(now, wire.PORResponse{First: c.pors[0], Second: c.pors[1]}), true
	}
	if c.raw != nil {
		mac := n.heavyHMAC(c.raw, body.Seed[:], n.env.Params.HeavyHMACIterations)
		return n.signed(now, wire.StoredResponse{Hash: body.Hash, Seed: body.Seed, MAC: mac}), true
	}
	// Dropped the message and has no proofs: cannot comply.
	return wire.Signed{}, false
}

// --- relay phase (Fig. 1; Fig. 6) ---

func (n *g2gNode) relayPhase(now sim.Time, other *g2gNode) bool {
	n.env.spans.Enter(obs.SpanRelay)
	defer n.env.spans.Exit()
	transferred := false
	n.eachOffer(now, other.ID(), func(c *g2gCustody) {
		if n.relayOne(now, c, other) {
			transferred = true
		}
	})
	return transferred
}

// eachOffer calls offer, in hash order, with every copy this node may relay
// to peer at now, and compacts the relayable list as it goes. relayOne never
// files or drops one of this node's copies, so the list is compacted in
// place under the walk.
func (n *g2gNode) eachOffer(now sim.Time, peer trace.NodeID, offer func(*g2gCustody)) {
	if n.Blacklisted(peer) {
		return
	}
	kept := n.relayable[:0]
	for _, c := range n.relayable {
		// An expired copy is past Δ1 as well, since Δ2 ≥ Δ1.
		if n.spent(c) || now >= c.genAt.Add(n.env.Params.Delta1) {
			c.offer = nil
			continue
		}
		kept = append(kept, c)
		if !slices.Contains(c.relayedTo, peer) {
			offer(c)
		}
	}
	clear(n.relayable[len(kept):])
	n.relayable = kept
}

// spent reports whether c can never be offered again: it was dropped, has
// arrived at its destination, has given up its payload, or is a relay's
// copy that used up its fan-out. The cap applies to relays only; the sender
// keeps offering the message ("the sender S tries to relay it to the first
// two (at least) nodes it meets"), which is what lets G2G match Epidemic's
// delivery while relays keep the replica count down.
func (n *g2gNode) spent(c *g2gCustody) bool {
	return c.dropped || c.isDest || c.raw == nil ||
		(!c.isSource && int(c.relayCount) >= n.env.Params.MaxRelays)
}

// relayOne hands c to the peer: the offer handshake (steps 1–2 of Fig. 1,
// or steps 8–9 of Fig. 6), then the encrypted handoff, the proof of relay
// and the key reveal (steps 3–5 of Fig. 1, 10–12 of Fig. 6).
func (n *g2gNode) relayOne(now sim.Time, c *g2gCustody, other *g2gNode) bool {
	var t terms
	var ok bool
	if n.del == nil {
		t, ok = n.requestRelay(now, c, other)
	} else {
		// The peer's claim answers this exchange only, however it ends.
		defer other.del.dropClaim()
		t, ok = n.qualify(now, c, other)
	}
	if !ok {
		return false
	}
	h := c.hash
	if other.holds(h) {
		n.chargeRefusedRelay(c, t, other)
		return false
	}
	if c.isSource {
		// A relay's declarations never change; the source's do, so it
		// sends a copy.
		t.attachments = append([]wire.Signed(nil), t.attachments...)
	}

	// Step 3: RELAY with the payload encrypted under a fresh key.
	key := newSessionKey(n.env.RNG)
	encrypted, err := g2gcrypto.EncryptPayload(key, c.raw, rngReader{n.env.RNG})
	if err != nil {
		return false
	}
	transfer := n.signed(now, wire.RelayTransfer{
		Hash: h, FM: t.fm, GenAt: c.genAt, Encrypted: encrypted, Attachments: t.attachments,
	})

	// Step 4: the peer commits with a signed PoR before learning anything.
	por, ok := other.handleRelayTransfer(now, transfer)
	if !ok || por.Signer != other.ID() || !n.verified(por) {
		return false
	}
	porBody, ok := por.Body.(wire.ProofOfRelay)
	if !ok || porBody != (wire.ProofOfRelay{Hash: h, From: n.ID(), To: other.ID(),
		DPrime: t.claim.DPrime, FM: t.fm, FBD: t.claim.FQ, Frame: t.claim.Frame}) {
		return false
	}

	// Step 5: reveal the key; the peer now learns whether it is the
	// destination.
	reveal := n.signed(now, wire.KeyReveal{Hash: h, Key: key})
	other.handleKeyReveal(now, reveal, n.ID())
	n.noteTx(len(encrypted))
	other.noteRx(len(encrypted))

	if c.del != nil {
		// Both copies take the new relay's quality as their label; quality
		// is changed only when forwarded.
		c.del.fm = t.claim.FQ
	}
	c.pors = append(c.pors, por)
	n.mem += porFootprint
	c.relayedTo = append(c.relayedTo, other.ID())
	if other.ID() != c.msg.Dest {
		c.relayCount++
		if c.isSource {
			n.tests[h] = append(n.tests[h], &pendingTest{relay: other.ID(), por: por, labelGiven: t.claim.FQ})
			orderedInsert(&n.testsOrder, h)
		}
	}
	// A relay that has found its two onward relays may discard the payload
	// (the PoRs are its defence); the source keeps it to verify storage
	// proofs during tests.
	if !c.isSource && len(c.pors) >= 2 && int(c.relayCount) >= n.env.Params.MaxRelays {
		n.mem -= int64(len(c.raw))
		c.raw = nil
	}
	n.env.Observer.Replicated(h, n.ID(), other.ID(), now)
	n.notifyRelayProven(por, now)
	return true
}

// requestRelay is G2G Epidemic's offer handshake (Fig. 1 steps 1–2):
// RELAY_RQST, answered RELAY_OK or RELAY_DECLINE. A repeat of a declined
// offer at the same instant is answered from the copy's offer record.
func (n *g2gNode) requestRelay(now sim.Time, c *g2gCustody, other *g2gNode) (terms, bool) {
	if c.offer == nil {
		c.offer = &offerRecord{body: wire.RelayRequest{Hash: c.hash}}
	}
	o := c.offer
	if o.declinedBy(now, other.ID()) {
		n.replay(o, wire.KindRelayDecline, other)
		return terms{}, false
	}
	req := n.signedMemo(now, o.body, &o.rqst)
	ack, ok := other.handleRelayRequest(now, req)
	if !ok || ack.Signer != other.ID() || !n.verified(ack) {
		return terms{}, false
	}
	switch body := ack.Body.(type) {
	case wire.RelayOK:
		return terms{sigLen: len(ack.Sig)}, body.Hash == c.hash
	case wire.RelayDecline:
		if body.Hash == c.hash {
			o.noteDecline(now, other.ID(), req, ack)
		}
	}
	return terms{}, false
}

// replay charges a recorded exchange again, exactly as the full one costs:
// this node signs the request, at its recorded size, and the peer verifies
// it; the peer signs the answer, of kind answer at its recorded size, and
// this node verifies it.
func (n *g2gNode) replay(o *offerRecord, answer wire.Kind, other *g2gNode) {
	n.chargeSigned(o.body.Kind(), int(o.rqstSize))
	other.chargeVerified()
	other.chargeSigned(answer, int(o.answerSize))
	n.chargeVerified()
}

// chargeRefusedRelay charges the RELAY of c to a peer that holds the
// message, which the peer refuses (handleRelayTransfer), exactly as
// building it costs, without building it: the session key and the
// payload's nonce drawn from the RNG, this node's signature with the RELAY
// on the wire at the size the built envelope has, and the peer's
// verification before it refuses. Encrypting the payload is no signed
// statement and no wire message, so it is not charged.
func (n *g2gNode) chargeRefusedRelay(c *g2gCustody, t terms, other *g2gNode) {
	newSessionKey(n.env.RNG)
	var nonce [g2gcrypto.PayloadNonceSize]byte
	n.env.RNG.Bytes(nonce[:])
	// An envelope's size grows byte for byte with its ciphertext and its
	// signature, so it is sized without both and they are added.
	size := wire.SizeOf(wire.Signed{Body: wire.RelayTransfer{Attachments: t.attachments}}) +
		g2gcrypto.EncryptedSize(len(c.raw)) + t.sigLen
	n.chargeSigned(wire.KindRelayTransfer, size)
	other.chargeVerified()
}

// holds reports whether this node holds message h. Such a node declines a
// RELAY_RQST for h and refuses a RELAY of it.
func (n *g2gNode) holds(h g2gcrypto.Digest) bool {
	_, ok := n.custody[h]
	return ok
}

func (n *g2gNode) handleRelayRequest(now sim.Time, req wire.Signed) (wire.Signed, bool) {
	body, ok := req.Body.(wire.RelayRequest)
	if !ok || !n.verified(req) {
		return wire.Signed{}, false
	}
	// B would not lie here: it does not yet know whether it is the
	// destination, so declining without having seen the message would be
	// against its own interest.
	if n.holds(body.Hash) {
		return n.signed(now, wire.RelayDecline{Hash: body.Hash}), true
	}
	return n.signed(now, wire.RelayOK{Hash: body.Hash}), true
}

// qualify is G2G Delegation's offer handshake and forwarding decision
// (Fig. 6 steps 8–9). It asks the peer its quality toward D′ — the real
// destination, or a random decoy when the peer *is* the destination, so it
// cannot tell — and returns the terms of the handoff if the peer qualifies.
func (n *g2gNode) qualify(now sim.Time, c *g2gCustody, other *g2gNode) (terms, bool) {
	isDest := c.msg.Dest == other.ID()
	// A decoy differs every time, so only the real D′ goes through the
	// offer record.
	var fqRespEnv wire.Signed
	var fqResp wire.FQResponse
	var ok bool
	if isDest {
		dPrime := n.randomDecoy(other.ID())
		fqRespEnv, fqResp, ok = n.exchangeFQ(now, c.hash, dPrime, nil, other)
	} else {
		if c.offer == nil {
			c.offer = &offerRecord{body: wire.FQRequest{Hash: c.hash, DPrime: c.msg.Dest}}
		}
		fqRespEnv, fqResp, ok = n.exchangeFQ(now, c.hash, c.msg.Dest, c.offer, other)
	}
	if !ok {
		return terms{}, false
	}

	// A cheater rewrites the message quality to zero so that anyone
	// qualifies and it can get rid of the message quickly.
	d := c.del
	presentedFM := d.fm
	if n.behavior.Deviation == Cheater && n.deviates(other.ID()) {
		presentedFM = 0
	}
	if !isDest && !fqResp.FQ.Better(presentedFM) {
		// Peer does not qualify. The sender records the last two signed
		// declarations of failed relays for the destination's audit.
		if c.isSource && fqResp.FQ < presentedFM {
			before := len(d.failedFQ)
			d.failedFQ = append(d.failedFQ, fqRespEnv)
			if len(d.failedFQ) > 2 {
				d.failedFQ = d.failedFQ[len(d.failedFQ)-2:]
			}
			n.mem += int64(len(d.failedFQ)-before) * porFootprint
		}
		return terms{}, false
	}
	return terms{fm: presentedFM, attachments: d.failedFQ, claim: fqResp, sigLen: len(fqRespEnv.Sig)}, true
}

// exchangeFQ runs the forwarding decision's quality exchange (Fig. 6 step 8)
// about message h: the signed FQ_RQST about dPrime to the peer and the
// validation of its FQ_RESP. It is the "decide" span of the per-phase
// profile. An exchange about a decoy (o nil) is always made in full. One
// about the real D′ goes through the copy's offer record o: the request is
// signed through its memo, and a repeat at the instant of a recorded
// exchange, with a peer whose answer recomputed now is the recorded one,
// is answered from the record. It is charged as the full exchange and
// leaves the peer's FQ claim as the full exchange does.
func (n *g2gNode) exchangeFQ(now sim.Time, h g2gcrypto.Digest, dPrime trace.NodeID,
	o *offerRecord, other *g2gNode) (wire.Signed, wire.FQResponse, bool) {

	n.env.spans.Enter(obs.SpanDecide)
	defer n.env.spans.Exit()
	var body wire.Body
	var rqst *wire.SignMemo
	if o == nil {
		body = wire.FQRequest{Hash: h, DPrime: dPrime}
	} else {
		if env, ok := o.answerOf(now, other.ID()); ok {
			// answerOf holds only FQ_RESPs that passed the checks below.
			if resp := env.Body.(wire.FQResponse); resp == other.fqAnswer(now, n.ID(), dPrime) {
				n.replay(o, wire.KindFQResponse, other)
				other.del.claim = fqClaim{hash: h, requester: n.ID(), resp: resp, valid: true}
				return env, resp, true
			}
		}
		body, rqst = o.body, &o.rqst
	}
	fqReq := n.signedMemo(now, body, rqst)
	fqRespEnv, ok := other.handleFQRequest(now, fqReq)
	if !ok || fqRespEnv.Signer != other.ID() || !n.verified(fqRespEnv) {
		return wire.Signed{}, wire.FQResponse{}, false
	}
	fqResp, ok := fqRespEnv.Body.(wire.FQResponse)
	if !ok || fqResp.Responder != other.ID() || fqResp.DPrime != dPrime {
		return wire.Signed{}, wire.FQResponse{}, false
	}
	if o != nil {
		o.noteAnswer(now, fqReq, fqRespEnv)
	}
	return fqRespEnv, fqResp, true
}

// randomDecoy picks a uniform node different from exclude (and from this
// node) to stand in as D′. The engine refuses G2G Delegation on fewer than
// three nodes, where there is none.
func (n *g2gNode) randomDecoy(exclude trace.NodeID) trace.NodeID {
	total := n.env.Sys.Nodes()
	for {
		candidate := trace.NodeID(n.env.RNG.Intn(total))
		if candidate != exclude && candidate != n.ID() {
			return candidate
		}
	}
}

func (n *g2gNode) handleFQRequest(now sim.Time, req wire.Signed) (wire.Signed, bool) {
	body, ok := req.Body.(wire.FQRequest)
	if !ok || !n.verified(req) {
		return wire.Signed{}, false
	}
	d := n.del
	resp := n.fqAnswer(now, req.Signer, body.DPrime)
	d.claim = fqClaim{hash: body.Hash, requester: req.Signer, resp: resp, valid: true}
	memo := d.fqResp[body.DPrime]
	if memo == nil {
		memo = new(wire.SignMemo)
		d.fqResp[body.DPrime] = memo
	}
	return n.signedMemo(now, resp, memo), true
}

// fqAnswer is the FQ_RESP this node answers requester's FQ_RQST about
// dPrime with at now: its reported quality toward dPrime and the frame it
// is reported for.
func (n *g2gNode) fqAnswer(now sim.Time, requester, dPrime trace.NodeID) wire.FQResponse {
	fq, frame := n.del.quality.reportedQuality(dPrime, now, n.kind.UsesFrequency())
	if n.behavior.Deviation == Liar && n.deviates(requester) {
		// A liar declares quality zero to avoid ever being chosen as a
		// relay. The frame index stays truthful so the claim looks
		// well-formed.
		fq = 0
	}
	return wire.FQResponse{Responder: n.ID(), DPrime: dPrime, FQ: fq, Frame: frame}
}

// dropClaim forgets the FQ_RESP of the exchange that just ended.
func (d *delegation) dropClaim() { d.claim = fqClaim{} }

func (n *g2gNode) handleRelayTransfer(now sim.Time, transfer wire.Signed) (wire.Signed, bool) {
	body, ok := transfer.Body.(wire.RelayTransfer)
	if !ok || !n.verified(transfer) {
		return wire.Signed{}, false
	}
	if n.holds(body.Hash) {
		return wire.Signed{}, false
	}
	por := wire.ProofOfRelay{Hash: body.Hash, From: transfer.Signer, To: n.ID()}
	var fm message.Quality
	var attachments []wire.Signed
	if d := n.del; d != nil {
		if !d.claim.valid || d.claim.hash != body.Hash || d.claim.requester != transfer.Signer {
			// No preceding FQ exchange with this sender: refuse the handoff.
			return wire.Signed{}, false
		}
		claim := d.claim.resp
		d.dropClaim()
		fm, attachments = claim.FQ, body.Attachments
		por.DPrime, por.FM, por.FBD, por.Frame = claim.DPrime, body.FM, claim.FQ, claim.Frame
	}
	if old, ok := n.pendingIn[body.Hash]; ok {
		n.mem -= int64(len(old.encrypted))
	}
	n.pendingIn[body.Hash] = &pendingTransfer{
		from: transfer.Signer, fm: fm, genAt: body.GenAt,
		encrypted: body.Encrypted, attachments: attachments,
	}
	n.mem += int64(len(body.Encrypted))
	return n.signed(now, por), true
}

func (n *g2gNode) handleKeyReveal(now sim.Time, reveal wire.Signed, from trace.NodeID) {
	body, ok := reveal.Body.(wire.KeyReveal)
	if !ok || !n.verified(reveal) {
		return
	}
	pending, ok := n.pendingIn[body.Hash]
	if !ok || pending.from != from {
		return
	}
	delete(n.pendingIn, body.Hash)
	n.mem -= int64(len(pending.encrypted))

	raw, err := g2gcrypto.DecryptPayload(body.Key, pending.encrypted)
	if err != nil {
		return
	}
	m, err := message.Unmarshal(raw)
	if err != nil || m.Hash() != body.Hash {
		// The initiator handed over bytes that do not match the advertised
		// hash: ignore the handoff entirely.
		return
	}

	c := &g2gCustody{msg: m, raw: raw, hash: body.Hash, genAt: pending.genAt}
	if n.del != nil {
		c.del = &copyDelegation{fm: pending.fm, failedFQ: pending.attachments}
	}
	if m.Dest == n.ID() {
		c.isDest = true
		if res, err := m.Open(n.env.Sys, n.self); err == nil && res.Authentic {
			n.env.Observer.Delivered(body.Hash, now)
		}
		if c.del != nil {
			n.auditAttachments(now, body.Hash, c.genAt, c.del.failedFQ)
		}
	} else if n.behavior.Deviation == Dropper && n.deviates(from) {
		// Message dropper: discard right after the relay phase. The signed
		// PoR it just gave away is now a liability.
		c.dropped = true
		c.raw = nil
	}
	n.takeCustody(c)
}

// auditAttachments is G2G Delegation's test by the destination: it checks
// each embedded failed-relay declaration against its own symmetric record
// of the claimed timeframe. A mismatch is a proof of lying.
func (n *g2gNode) auditAttachments(now sim.Time, h g2gcrypto.Digest, genAt sim.Time, attachments []wire.Signed) {
	d := n.del
	for _, att := range attachments {
		claim, ok := att.Body.(wire.FQResponse)
		if !ok || !n.verified(att) || att.Signer != claim.Responder {
			continue
		}
		if claim.DPrime != n.ID() {
			// A declaration about a decoy destination: nothing to audit.
			continue
		}
		if !d.quality.auditable(claim.Frame, now) {
			continue
		}
		key := auditKey{responder: claim.Responder, frame: claim.Frame}
		if _, done := d.audited[key]; done {
			continue
		}
		d.audited[key] = struct{}{}
		truth := d.quality.auditQuality(claim.Responder, claim.Frame, n.kind.UsesFrequency())
		if claim.FQ != truth {
			n.reportMisbehavior(now, claim.Responder, wire.ReasonLied,
				[]wire.Signed{att}, h, genAt.Add(n.env.Params.Delta1))
		}
	}
}

// --- custody, expiry and memory ---

// takeCustody files a new copy: custody record, relayable list, and its
// share of the memory counter and the expiry bound.
func (n *g2gNode) takeCustody(c *g2gCustody) {
	n.custody[c.hash] = c
	if !n.spent(c) {
		orderedInsertCopy(&n.relayable, c)
	}
	n.mem += hashFootprint + c.footprint()
	n.expireAt = min(n.expireAt, c.genAt.Add(n.env.Params.Delta2))
}

// expire drops all state for messages past Δ2.
func (n *g2gNode) expire(now sim.Time) {
	if now < n.expireAt {
		return
	}
	// The outcome does not depend on the walk's order: map order is fine.
	next := never
	for h, c := range n.custody {
		at := c.genAt.Add(n.env.Params.Delta2)
		if now >= at {
			n.mem -= hashFootprint + c.footprint()
			delete(n.custody, h)
			if _, ok := n.tests[h]; ok {
				delete(n.tests, h)
				orderedRemove(&n.testsOrder, h)
			}
			continue
		}
		next = min(next, at)
	}
	n.expireAt = next
}

// MemoryBytes implements MemoryMeter: stored payloads, collected proofs of
// relay, carried and failed-relay declarations, pending handoffs, the hash
// of every handled message, and G2G Delegation's quality history.
func (n *g2gNode) MemoryBytes() int64 {
	if n.del == nil {
		return n.mem
	}
	return n.mem + n.del.quality.historyBytes()
}

// footprint is the copy's share of MemoryBytes: payload, proofs of relay
// and failed-relay declarations.
func (c *g2gCustody) footprint() int64 {
	records := len(c.pors)
	if c.del != nil {
		records += len(c.del.failedFQ)
	}
	return int64(len(c.raw)) + int64(records)*porFootprint
}
