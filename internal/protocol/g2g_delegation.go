package protocol

import (
	"crypto/hmac"
	"fmt"
	"slices"

	"give2get/internal/g2gcrypto"
	"give2get/internal/message"
	"give2get/internal/obs"
	"give2get/internal/sim"
	"give2get/internal/trace"
	"give2get/internal/wire"
)

// g2gDelegationNode implements G2G Delegation Forwarding (Sections VI–VII):
// the FQ_RQST/FQ_RESP quality negotiation with destination decoys (Fig. 6),
// quality labels updated only on forwarding, timeframed quality snapshots,
// the sender's embedded failed-relay declarations, the test-by-sender chain
// audit f_AD = f_m¹ < f_BD = f_m² < f_CD, and the test-by-destination
// quality audit that exposes liars.
type g2gDelegationNode struct {
	base
	frequency bool
	quality   *qualityTable
	// custody doubles as the seen set, as on g2gEpidemicNode.
	custody   map[g2gcrypto.Digest]*g2gDelCustody
	tests     map[g2gcrypto.Digest][]*delPendingTest
	pendingIn map[g2gcrypto.Digest]*delPendingTransfer
	// testsOrder mirrors the tests keys in sorted order (see orderedInsert);
	// the test phase iterates it instead of re-sorting per contact.
	testsOrder []g2gcrypto.Digest
	// relayable is maintained exactly as on g2gEpidemicNode.
	relayable []*g2gDelCustody
	// fqResp memoizes, per D′, this node's last FQ_RESP about it. The reply
	// names neither the requester nor the message, so every peer asking
	// about one D′ at one instant is answered with the same signed bytes.
	fqResp map[trace.NodeID]*g2gcrypto.SignMemo
	// claim is the FQ_RESP this node issued in the exchange under way, so
	// the PoR it signs moments later is consistent with it. It answers only
	// the RELAY of that exchange: the requester's relayOne drops it on
	// return, so no claim outlives the exchange that made it.
	claim fqClaim
	// audited tracks (responder, frame) pairs this destination has already
	// audited, so one liar is not reported once per arriving copy.
	audited map[auditKey]struct{}
	seq     uint32
	// mem and expireAt are maintained exactly as on g2gEpidemicNode; the
	// quality history is added on top in MemoryBytes.
	mem      int64
	expireAt sim.Time
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

type g2gDelCustody struct {
	msg      *message.Message
	raw      []byte
	hash     g2gcrypto.Digest
	genAt    sim.Time
	fm       message.Quality
	isSource bool
	isDest   bool
	dropped  bool
	pors     []wire.Signed
	// attachments are the sender-embedded failed-relay declarations this
	// copy carries toward the destination.
	attachments []wire.Signed
	// failedFQ (source only) keeps the last two signed FQ_RESPs of nodes
	// that failed to qualify as relays.
	failedFQ []wire.Signed
	// relayedTo lists the peers this copy was handed to; a relay's holds at
	// most MaxRelays+1, and only membership matters.
	relayedTo []trace.NodeID
	// relayCount counts handoffs to non-destination relays: deliveries to
	// the destination do not consume the fan-out budget.
	relayCount int
	// fqRqst memoizes this node's last FQ_RQST about the real destination,
	// which every offer of the copy at one instant repeats. Decoy requests
	// differ each time and never use it. Like g2gCustody.rqst, it is made by
	// the first offer and released when the copy leaves the relayable list.
	fqRqst *g2gcrypto.SignMemo
}

type delPendingTest struct {
	relay trace.NodeID
	por   wire.Signed
	// labelGiven is the quality the relay claimed at handoff, which became
	// the label of both copies: the anchor of the sender's chain audit.
	labelGiven message.Quality
	tested     bool
}

type delPendingTransfer struct {
	from        trace.NodeID
	fm          message.Quality
	genAt       sim.Time
	encrypted   []byte
	attachments []wire.Signed
}

var _ Node = (*g2gDelegationNode)(nil)

func newG2GDelegationNode(env *Env, self g2gcrypto.Identity, behavior Behavior, frequency bool) *g2gDelegationNode {
	return &g2gDelegationNode{
		base:      newBase(env, self, behavior),
		frequency: frequency,
		quality:   newQualityTable(env.Params.QualityFrame),
		custody:   make(map[g2gcrypto.Digest]*g2gDelCustody),
		tests:     make(map[g2gcrypto.Digest][]*delPendingTest),
		pendingIn: make(map[g2gcrypto.Digest]*delPendingTransfer),
		fqResp:    make(map[trace.NodeID]*g2gcrypto.SignMemo),
		audited:   make(map[auditKey]struct{}),
	}
}

// Generate implements Node. The fresh message is labelled with the sender's
// current quality toward the destination, exactly like vanilla Delegation;
// the sender-test chain is anchored at the first relay's claim, so the
// initial label needs no frame snapshotting.
func (n *g2gDelegationNode) Generate(now sim.Time, dest trace.NodeID, body []byte) error {
	if dest == n.ID() {
		return fmt.Errorf("protocol: node %d generating a message to itself", n.ID())
	}
	n.seq++
	id := message.MakeID(n.ID(), n.seq)
	m, err := message.New(n.env.Sys, n.self, dest, id, body)
	if err != nil {
		return err
	}
	h := m.Hash()
	fm := n.quality.qualityAt(dest, now, n.frequency)
	n.takeCustody(&g2gDelCustody{
		msg: m, raw: m.Marshal(), hash: h, genAt: now, fm: fm,
		isSource: true,
	})
	n.env.Observer.Generated(h, id, n.ID(), dest, now)
	return nil
}

// ObserveMeeting implements Node.
func (n *g2gDelegationNode) ObserveMeeting(now sim.Time, peer trace.NodeID) {
	n.noteQualityUpdate()
	n.quality.observe(now, peer)
}

// DeliverPoM implements Node.
func (n *g2gDelegationNode) DeliverPoM(pom wire.Signed) { n.acceptPoM(pom) }

// RunSession implements Node.
func (n *g2gDelegationNode) RunSession(now sim.Time, peer Node) (bool, error) {
	other, ok := peer.(*g2gDelegationNode)
	if !ok {
		return false, fmt.Errorf("%w: %T vs %T", ErrProtocolMismatch, n, peer)
	}
	n.expire(now)
	n.testPhase(now, other)
	return n.relayPhase(now, other), nil
}

// --- relay phase (Fig. 6) ---

func (n *g2gDelegationNode) relayPhase(now sim.Time, other *g2gDelegationNode) bool {
	n.env.spans.Enter(obs.SpanRelay)
	defer n.env.spans.Exit()
	transferred := false
	n.eachOffer(now, other.ID(), func(c *g2gDelCustody) {
		if n.relayOne(now, c, other) {
			transferred = true
		}
	})
	return transferred
}

// eachOffer is g2gEpidemicNode.eachOffer for this kind's copies.
func (n *g2gDelegationNode) eachOffer(now sim.Time, peer trace.NodeID, offer func(*g2gDelCustody)) {
	if n.Blacklisted(peer) {
		return
	}
	kept := n.relayable[:0]
	for _, c := range n.relayable {
		if n.spent(c) || now >= c.genAt.Add(n.env.Params.Delta1) {
			c.fqRqst = nil
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

// spent is g2gEpidemicNode.spent for this kind's copies.
func (n *g2gDelegationNode) spent(c *g2gDelCustody) bool {
	return c.dropped || c.isDest || c.raw == nil ||
		(!c.isSource && c.relayCount >= n.env.Params.MaxRelays)
}

// relayOne runs steps 8–12 of Fig. 6 against the peer.
func (n *g2gDelegationNode) relayOne(now sim.Time, c *g2gDelCustody, other *g2gDelegationNode) bool {
	h := c.hash
	isDest := c.msg.Dest == other.ID()

	// Step 8: ask the peer its quality toward D' — the real destination, or
	// a random decoy when the peer *is* the destination, so it cannot tell.
	// A decoy differs every time, so only the real D' goes through the memo.
	var dPrime trace.NodeID
	var rqst *g2gcrypto.SignMemo
	if isDest {
		dPrime = n.randomDecoy(other.ID())
	} else {
		if c.fqRqst == nil {
			c.fqRqst = new(g2gcrypto.SignMemo)
		}
		dPrime, rqst = c.msg.Dest, c.fqRqst
	}
	// The peer's claim answers this exchange only, however it ends.
	defer other.dropClaim()
	fqRespEnv, fqResp, ok := n.exchangeFQ(now, h, dPrime, rqst, other)
	if !ok {
		return false
	}

	// A cheater rewrites the message quality to zero so that anyone
	// qualifies and it can get rid of the message quickly.
	presentedFM := c.fm
	if n.behavior.Deviation == Cheater && n.deviates(other.ID()) {
		presentedFM = 0
	}

	if !isDest && !fqResp.FQ.Better(presentedFM) {
		// Peer does not qualify. The sender records the last two signed
		// declarations of failed relays for the destination's audit.
		if c.isSource && fqResp.FQ < presentedFM {
			before := len(c.failedFQ)
			c.failedFQ = append(c.failedFQ, *fqRespEnv)
			if len(c.failedFQ) > 2 {
				c.failedFQ = c.failedFQ[len(c.failedFQ)-2:]
			}
			n.mem += int64(len(c.failedFQ)-before) * porFootprint
		}
		return false
	}

	// Steps 10–12: hand over encrypted, collect the PoR, reveal the key.
	outAttachments := c.attachments
	if c.isSource {
		outAttachments = append([]wire.Signed(nil), c.failedFQ...)
	}
	key := newSessionKey(n.env.RNG)
	encrypted, err := g2gcrypto.EncryptPayload(key, c.raw, rngReader{n.env.RNG})
	if err != nil {
		return false
	}
	transfer := n.signed(now, wire.RelayTransfer{
		Hash: h, FM: presentedFM, GenAt: c.genAt,
		Encrypted: encrypted, Attachments: outAttachments,
	})
	por := other.handleRelayTransfer(now, transfer)
	if por == nil || por.Signer != other.ID() || !n.verified(*por) {
		return false
	}
	porBody, ok := por.Body.(wire.ProofOfRelay)
	if !ok || porBody.Hash != h || porBody.From != n.ID() || porBody.To != other.ID() ||
		porBody.DPrime != dPrime || porBody.FM != presentedFM ||
		porBody.FBD != fqResp.FQ || porBody.Frame != fqResp.Frame {
		return false
	}
	reveal := n.signed(now, wire.KeyReveal{Hash: h, Key: key})
	other.handleKeyReveal(now, reveal, n.ID())
	n.noteTx(len(encrypted))
	other.noteRx(len(encrypted))

	// Both copies take the new relay's quality as their label; quality is
	// changed only when forwarded.
	c.fm = fqResp.FQ
	c.pors = append(c.pors, *por)
	n.mem += porFootprint
	c.relayedTo = append(c.relayedTo, other.ID())
	if !isDest {
		c.relayCount++
	}
	if c.isSource && !isDest {
		n.tests[h] = append(n.tests[h], &delPendingTest{
			relay: other.ID(), por: *por, labelGiven: fqResp.FQ,
		})
		orderedInsert(&n.testsOrder, h)
	}
	if !c.isSource && len(c.pors) >= 2 && c.relayCount >= n.env.Params.MaxRelays {
		n.mem -= int64(len(c.raw))
		c.raw = nil
	}
	n.env.Observer.Replicated(h, n.ID(), other.ID(), now)
	n.notifyRelayProven(*por, now)
	return true
}

// exchangeFQ runs the forwarding decision's quality exchange (Fig. 6 step 8):
// the signed FQ_RQST to the peer, through the request memo rqst (nil for a
// decoy), and the validation of its FQ_RESP. It is the "decide" span of the
// per-phase profile.
func (n *g2gDelegationNode) exchangeFQ(now sim.Time, h g2gcrypto.Digest, dPrime trace.NodeID,
	rqst *g2gcrypto.SignMemo, other *g2gDelegationNode) (*wire.Signed, wire.FQResponse, bool) {

	n.env.spans.Enter(obs.SpanDecide)
	defer n.env.spans.Exit()
	fqReq := n.signedMemo(now, wire.FQRequest{Hash: h, DPrime: dPrime}, rqst)
	fqRespEnv := other.handleFQRequest(now, fqReq)
	if fqRespEnv == nil || fqRespEnv.Signer != other.ID() || !n.verified(*fqRespEnv) {
		return nil, wire.FQResponse{}, false
	}
	fqResp, ok := fqRespEnv.Body.(wire.FQResponse)
	if !ok || fqResp.Responder != other.ID() || fqResp.DPrime != dPrime {
		return nil, wire.FQResponse{}, false
	}
	return fqRespEnv, fqResp, true
}

// randomDecoy picks a uniform node different from exclude (and from this
// node) to stand in as D'.
func (n *g2gDelegationNode) randomDecoy(exclude trace.NodeID) trace.NodeID {
	total := n.env.Sys.Nodes()
	for {
		candidate := trace.NodeID(n.env.RNG.Intn(total))
		if candidate != exclude && candidate != n.ID() {
			return candidate
		}
	}
}

func (n *g2gDelegationNode) handleFQRequest(now sim.Time, req wire.Signed) *wire.Signed {
	body, ok := req.Body.(wire.FQRequest)
	if !ok || !n.verified(req) {
		return nil
	}
	fq, frame := n.quality.reportedQuality(body.DPrime, now, n.frequency)
	if n.behavior.Deviation == Liar && n.deviates(req.Signer) {
		// A liar declares quality zero to avoid ever being chosen as a
		// relay. The frame index stays truthful so the claim looks
		// well-formed.
		fq = 0
	}
	resp := wire.FQResponse{Responder: n.ID(), DPrime: body.DPrime, FQ: fq, Frame: frame}
	n.claim = fqClaim{hash: body.Hash, requester: req.Signer, resp: resp, valid: true}
	memo := n.fqResp[body.DPrime]
	if memo == nil {
		memo = new(g2gcrypto.SignMemo)
		n.fqResp[body.DPrime] = memo
	}
	env := n.signedMemo(now, resp, memo)
	return &env
}

// dropClaim forgets the FQ_RESP of the exchange that just ended.
func (n *g2gDelegationNode) dropClaim() { n.claim = fqClaim{} }

func (n *g2gDelegationNode) handleRelayTransfer(now sim.Time, transfer wire.Signed) *wire.Signed {
	body, ok := transfer.Body.(wire.RelayTransfer)
	if !ok || !n.verified(transfer) {
		return nil
	}
	if _, seen := n.custody[body.Hash]; seen {
		return nil
	}
	if !n.claim.valid || n.claim.hash != body.Hash || n.claim.requester != transfer.Signer {
		// No preceding FQ exchange with this sender: refuse the handoff.
		return nil
	}
	claim := n.claim.resp
	n.dropClaim()
	if old, ok := n.pendingIn[body.Hash]; ok {
		n.mem -= int64(len(old.encrypted))
	}
	n.pendingIn[body.Hash] = &delPendingTransfer{
		from: transfer.Signer, fm: claim.FQ, genAt: body.GenAt,
		encrypted: body.Encrypted, attachments: body.Attachments,
	}
	n.mem += int64(len(body.Encrypted))
	por := n.signed(now, wire.ProofOfRelay{
		Hash: body.Hash, From: transfer.Signer, To: n.ID(),
		DPrime: claim.DPrime, FM: body.FM, FBD: claim.FQ, Frame: claim.Frame,
	})
	return &por
}

func (n *g2gDelegationNode) handleKeyReveal(now sim.Time, reveal wire.Signed, from trace.NodeID) {
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
		return
	}

	c := &g2gDelCustody{
		msg: m, raw: raw, hash: body.Hash, genAt: pending.genAt,
		fm:          pending.fm,
		attachments: pending.attachments,
	}
	if m.Dest == n.ID() {
		c.isDest = true
		if res, err := m.Open(n.env.Sys, n.self); err == nil && res.Authentic {
			n.env.Observer.Delivered(body.Hash, now)
		}
		n.auditAttachments(now, body.Hash, c.genAt, pending.attachments)
	} else if n.behavior.Deviation == Dropper && n.deviates(from) {
		c.dropped = true
		c.raw = nil
	}
	n.takeCustody(c)
}

// takeCustody files a new copy: custody record, relayable list, and its
// share of the memory counter and the expiry bound.
func (n *g2gDelegationNode) takeCustody(c *g2gDelCustody) {
	n.custody[c.hash] = c
	if !n.spent(c) {
		orderedInsertCopy(&n.relayable, c)
	}
	n.mem += hashFootprint + c.footprint()
	n.expireAt = min(n.expireAt, c.genAt.Add(n.env.Params.Delta2))
}

// auditAttachments is the test-by-destination phase: the destination checks
// each embedded failed-relay declaration against its own symmetric record
// of the claimed timeframe. A mismatch is a proof of lying.
func (n *g2gDelegationNode) auditAttachments(now sim.Time, h g2gcrypto.Digest, genAt sim.Time, attachments []wire.Signed) {
	for _, att := range attachments {
		claim, ok := att.Body.(wire.FQResponse)
		if !ok || !n.verified(att) || att.Signer != claim.Responder {
			continue
		}
		if claim.DPrime != n.ID() {
			// A declaration about a decoy destination: nothing to audit.
			continue
		}
		if !n.quality.auditable(claim.Frame, now) {
			continue
		}
		key := auditKey{responder: claim.Responder, frame: claim.Frame}
		if _, done := n.audited[key]; done {
			continue
		}
		n.audited[key] = struct{}{}
		truth := n.quality.auditQuality(claim.Responder, claim.Frame, n.frequency)
		if claim.FQ != truth {
			n.reportMisbehavior(now, claim.Responder, wire.ReasonLied,
				[]wire.Signed{att}, h, genAt.Add(n.env.Params.Delta1))
		}
	}
}

// --- test by the sender (Section VI-B) ---

func (n *g2gDelegationNode) testPhase(now sim.Time, other *g2gDelegationNode) {
	n.env.spans.Enter(obs.SpanTest)
	defer n.env.spans.Exit()
	n.digestScratch = append(n.digestScratch[:0], n.testsOrder...)
	for _, h := range n.digestScratch {
		pending := n.tests[h]
		c, ok := n.custody[h]
		if !ok {
			continue
		}
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
			n.env.spans.Enter(obs.SpanPoR)
			resp := other.handlePORChallenge(now, challenge)
			passed, reason, evidence := n.evaluateTestResponse(c, pt, seed, resp)
			n.env.spans.Exit()
			n.noteTested(passed)
			n.env.Observer.Tested(other.ID(), passed, now)
			if !passed {
				n.reportMisbehavior(now, other.ID(), reason, evidence, h,
					c.genAt.Add(n.env.Params.Delta1))
			}
		}
	}
}

// evaluateTestResponse checks a test answer. On failure it returns the
// reason and the evidence documents for the PoM broadcast.
func (n *g2gDelegationNode) evaluateTestResponse(c *g2gDelCustody, pt *delPendingTest,
	seed [16]byte, resp *wire.Signed) (bool, wire.MisbehaviorReason, []wire.Signed) {

	dropEvidence := []wire.Signed{pt.por}
	if resp == nil || resp.Signer != pt.relay || !n.verified(*resp) {
		return false, wire.ReasonDropped, dropEvidence
	}
	switch body := resp.Body.(type) {
	case wire.PORResponse:
		first, ok1 := body.First.Body.(wire.ProofOfRelay)
		second, ok2 := body.Second.Body.(wire.ProofOfRelay)
		if !ok1 || !ok2 ||
			!n.verified(body.First) || !n.verified(body.Second) ||
			body.First.Signer != first.To || body.Second.Signer != second.To ||
			first.Hash != c.hash || second.Hash != c.hash ||
			first.From != pt.relay || second.From != pt.relay ||
			first.To == second.To || first.To == pt.relay || second.To == pt.relay {
			return false, wire.ReasonDropped, dropEvidence
		}
		// Chain audit: f_AD = f_m¹ < f_BD = f_m² < f_CD, where the label
		// the relay took at handoff anchors the chain. Hops that deliver
		// to the true destination are exempt from the strict-increase rule
		// (delivery is always allowed), but the label continuity must hold.
		expected := pt.labelGiven
		for _, hop := range []wire.ProofOfRelay{first, second} {
			if hop.FM != expected {
				return false, wire.ReasonCheated, []wire.Signed{pt.por, body.First, body.Second}
			}
			if hop.To != c.msg.Dest && !hop.FBD.Better(hop.FM) {
				return false, wire.ReasonCheated, []wire.Signed{pt.por, body.First, body.Second}
			}
			expected = hop.FBD
		}
		return true, 0, nil
	case wire.StoredResponse:
		if body.Hash != c.hash || body.Seed != seed || c.raw == nil {
			return false, wire.ReasonDropped, dropEvidence
		}
		mac := n.heavyHMAC(c.raw, seed[:], n.env.Params.HeavyHMACIterations)
		if !hmac.Equal(mac[:], body.MAC[:]) {
			return false, wire.ReasonDropped, dropEvidence
		}
		return true, 0, nil
	default:
		return false, wire.ReasonDropped, dropEvidence
	}
}

func (n *g2gDelegationNode) handlePORChallenge(now sim.Time, challenge wire.Signed) *wire.Signed {
	body, ok := challenge.Body.(wire.PORChallenge)
	if !ok || !n.verified(challenge) {
		return nil
	}
	c, ok := n.custody[body.Hash]
	if !ok {
		return nil
	}
	if len(c.pors) >= 2 {
		resp := n.signed(now, wire.PORResponse{First: c.pors[0], Second: c.pors[1]})
		return &resp
	}
	if c.raw != nil {
		mac := n.heavyHMAC(c.raw, body.Seed[:], n.env.Params.HeavyHMACIterations)
		resp := n.signed(now, wire.StoredResponse{Hash: body.Hash, Seed: body.Seed, MAC: mac})
		return &resp
	}
	return nil
}

func (n *g2gDelegationNode) expire(now sim.Time) {
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

// MemoryBytes implements MemoryMeter: payloads, proofs of relay, embedded
// declarations, pending handoffs, quality history, and the hash of every
// handled message.
func (n *g2gDelegationNode) MemoryBytes() int64 { return n.mem + n.quality.historyBytes() }

// memoryWalk recomputes the buffer part of MemoryBytes (all but the quality
// history); RestoreState seeds the maintained counter with it.
func (n *g2gDelegationNode) memoryWalk() int64 {
	total := int64(len(n.custody)) * hashFootprint
	for _, c := range n.custody {
		total += c.footprint()
	}
	for _, p := range n.pendingIn {
		total += int64(len(p.encrypted))
	}
	return total
}

// footprint is the copy's share of MemoryBytes: payload, proofs of relay,
// carried declarations, and failed-relay declarations.
func (c *g2gDelCustody) footprint() int64 {
	return int64(len(c.raw)) + int64(len(c.pors)+len(c.attachments)+len(c.failedFQ))*porFootprint
}

// key files the copy under its message hash in the relayable list.
func (c *g2gDelCustody) key() *g2gcrypto.Digest { return &c.hash }
