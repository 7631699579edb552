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

// g2gEpidemicNode implements G2G Epidemic Forwarding (Section IV): the relay
// phase of Fig. 1 (encrypt-then-reveal handoffs producing signed proofs of
// relay), the sender-driven test phase of Fig. 2 (two PoRs or a heavy-HMAC
// storage proof), the Δ1/Δ2 timeouts, and proof-of-misbehavior broadcasts.
type g2gEpidemicNode struct {
	base
	// custody holds every message this node has handled until Δ2, so it
	// doubles as the paper's seen set: RELAY_RQST and RELAY answer from it.
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
	// reverts. Derived: RestoreState rebuilds it.
	relayable []*g2gCustody
	seq       uint32
	// mem is MemoryBytes, kept up to date on every buffer change; expireAt
	// is the earliest genAt+Δ2 in custody, before which expire has nothing
	// to drop (zero forces a walk). Both are derived and never checkpointed.
	mem      int64
	expireAt sim.Time
}

// g2gCustody is this node's state for one message it has handled.
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
	// pors are the proofs of relay collected from onward handoffs; they are
	// this node's defence in the test phase.
	pors []wire.Signed
	// relayedTo lists the peers this copy was handed to; a relay's holds at
	// most MaxRelays+1, and only membership matters.
	relayedTo []trace.NodeID
	// relayCount counts handoffs to non-destination relays: deliveries to
	// the destination do not consume the fan-out budget.
	relayCount int
	// rqst and decline memoize this node's last RELAY_RQST and RELAY_DECLINE
	// for the message. Neither names the peer, so every offer of the copy at
	// one instant signs the same bytes, as does every decline of it. rqst is
	// made by the first offer and released when the copy leaves the
	// relayable list, since it is never offered again.
	rqst    *g2gcrypto.SignMemo
	decline g2gcrypto.SignMemo
}

type pendingTest struct {
	relay  trace.NodeID
	por    wire.Signed // the relay's handoff PoR: the PoM evidence if it fails
	tested bool
}

type pendingTransfer struct {
	from      trace.NodeID
	fm        message.Quality
	genAt     sim.Time
	encrypted []byte
}

var _ Node = (*g2gEpidemicNode)(nil)

func newG2GEpidemicNode(env *Env, self g2gcrypto.Identity, behavior Behavior) *g2gEpidemicNode {
	return &g2gEpidemicNode{
		base:      newBase(env, self, behavior),
		custody:   make(map[g2gcrypto.Digest]*g2gCustody),
		tests:     make(map[g2gcrypto.Digest][]*pendingTest),
		pendingIn: make(map[g2gcrypto.Digest]*pendingTransfer),
	}
}

// Generate implements Node.
func (n *g2gEpidemicNode) Generate(now sim.Time, dest trace.NodeID, body []byte) error {
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
	n.takeCustody(&g2gCustody{
		msg: m, raw: m.Marshal(), hash: h, genAt: now,
		isSource: true,
	})
	n.env.Observer.Generated(h, id, n.ID(), dest, now)
	return nil
}

// ObserveMeeting implements Node. G2G Epidemic keeps no quality state.
func (n *g2gEpidemicNode) ObserveMeeting(sim.Time, trace.NodeID) {}

// DeliverPoM implements Node.
func (n *g2gEpidemicNode) DeliverPoM(pom wire.Signed) { n.acceptPoM(pom) }

// RunSession implements Node: first the test phase for any pending
// challenges against this peer, then the relay phase.
func (n *g2gEpidemicNode) RunSession(now sim.Time, peer Node) (bool, error) {
	other, ok := peer.(*g2gEpidemicNode)
	if !ok {
		return false, fmt.Errorf("%w: %T vs %T", ErrProtocolMismatch, n, peer)
	}
	n.expire(now)
	n.testPhase(now, other)
	return n.relayPhase(now, other), nil
}

// --- test phase (Fig. 2) ---

func (n *g2gEpidemicNode) testPhase(now sim.Time, other *g2gEpidemicNode) {
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
			resp := other.handlePORChallenge(now, challenge)
			passed := n.evaluateTestResponse(c, other.ID(), seed, resp)
			n.env.spans.Exit()
			n.noteTested(passed)
			n.env.Observer.Tested(other.ID(), passed, now)
			if !passed {
				n.reportMisbehavior(now, other.ID(), wire.ReasonDropped,
					[]wire.Signed{pt.por}, h, c.genAt.Add(n.env.Params.Delta1))
			}
		}
	}
}

// evaluateTestResponse checks a challenge answer: either two verifiable
// proofs of relay for this message, or the heavy HMAC over the full message
// under the challenge seed.
func (n *g2gEpidemicNode) evaluateTestResponse(c *g2gCustody, relay trace.NodeID,
	seed [16]byte, resp *wire.Signed) bool {

	if resp == nil || resp.Signer != relay || !n.verified(*resp) {
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

func (n *g2gEpidemicNode) validPORPair(c *g2gCustody, relay trace.NodeID, resp wire.PORResponse) bool {
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

// handlePORChallenge is the challenged node's side: produce two PoRs, or the
// storage proof, or fail.
func (n *g2gEpidemicNode) handlePORChallenge(now sim.Time, challenge wire.Signed) *wire.Signed {
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
	// Dropped the message and has no proofs: cannot comply.
	return nil
}

// --- relay phase (Fig. 1) ---

func (n *g2gEpidemicNode) relayPhase(now sim.Time, other *g2gEpidemicNode) bool {
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
func (n *g2gEpidemicNode) eachOffer(now sim.Time, peer trace.NodeID, offer func(*g2gCustody)) {
	if n.Blacklisted(peer) {
		return
	}
	kept := n.relayable[:0]
	for _, c := range n.relayable {
		// An expired copy is past Δ1 as well, since Δ2 ≥ Δ1.
		if n.spent(c) || now >= c.genAt.Add(n.env.Params.Delta1) {
			c.rqst = nil
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
func (n *g2gEpidemicNode) spent(c *g2gCustody) bool {
	return c.dropped || c.isDest || c.raw == nil ||
		(!c.isSource && c.relayCount >= n.env.Params.MaxRelays)
}

// relayOne runs the five steps of Fig. 1 against the peer.
func (n *g2gEpidemicNode) relayOne(now sim.Time, c *g2gCustody, other *g2gEpidemicNode) bool {
	h := c.hash
	// Step 1-2: RELAY_RQST → RELAY_OK / RELAY_DECLINE.
	if c.rqst == nil {
		c.rqst = new(g2gcrypto.SignMemo)
	}
	req := n.signedMemo(now, wire.RelayRequest{Hash: h}, c.rqst)
	ack := other.handleRelayRequest(now, req)
	if ack == nil || ack.Signer != other.ID() || !n.verified(*ack) {
		return false
	}
	if _, declined := ack.Body.(wire.RelayDecline); declined {
		return false
	}
	if okBody, isOK := ack.Body.(wire.RelayOK); !isOK || okBody.Hash != h {
		return false
	}

	// Step 3: RELAY with the payload encrypted under a fresh key.
	key := newSessionKey(n.env.RNG)
	encrypted, err := g2gcrypto.EncryptPayload(key, c.raw, rngReader{n.env.RNG})
	if err != nil {
		return false
	}
	transfer := n.signed(now, wire.RelayTransfer{
		Hash: h, GenAt: c.genAt, Encrypted: encrypted,
	})

	// Step 4: the peer commits with a signed PoR before learning anything.
	por := other.handleRelayTransfer(now, transfer)
	if por == nil || por.Signer != other.ID() || !n.verified(*por) {
		return false
	}
	porBody, ok := por.Body.(wire.ProofOfRelay)
	if !ok || porBody.Hash != h || porBody.From != n.ID() || porBody.To != other.ID() {
		return false
	}

	// Step 5: reveal the key; the peer now learns whether it is the
	// destination.
	reveal := n.signed(now, wire.KeyReveal{Hash: h, Key: key})
	other.handleKeyReveal(now, reveal, n.ID())
	n.noteTx(len(encrypted))
	other.noteRx(len(encrypted))

	c.pors = append(c.pors, *por)
	n.mem += porFootprint
	c.relayedTo = append(c.relayedTo, other.ID())
	if other.ID() != c.msg.Dest {
		c.relayCount++
	}
	if c.isSource && other.ID() != c.msg.Dest {
		n.tests[h] = append(n.tests[h], &pendingTest{relay: other.ID(), por: *por})
		orderedInsert(&n.testsOrder, h)
	}
	// A relay that has found its two onward relays may discard the payload
	// (the PoRs are its defence); the source keeps it to verify storage
	// proofs during tests.
	if !c.isSource && len(c.pors) >= 2 && c.relayCount >= n.env.Params.MaxRelays {
		n.mem -= int64(len(c.raw))
		c.raw = nil
	}
	n.env.Observer.Replicated(h, n.ID(), other.ID(), now)
	n.notifyRelayProven(*por, now)
	return true
}

func (n *g2gEpidemicNode) handleRelayRequest(now sim.Time, req wire.Signed) *wire.Signed {
	body, ok := req.Body.(wire.RelayRequest)
	if !ok || !n.verified(req) {
		return nil
	}
	// B would not lie here: it does not yet know whether it is the
	// destination, so declining without having seen the message would be
	// against its own interest.
	var resp wire.Signed
	if c, seen := n.custody[body.Hash]; seen {
		resp = n.signedMemo(now, wire.RelayDecline{Hash: body.Hash}, &c.decline)
	} else {
		resp = n.signed(now, wire.RelayOK{Hash: body.Hash})
	}
	return &resp
}

func (n *g2gEpidemicNode) handleRelayTransfer(now sim.Time, transfer wire.Signed) *wire.Signed {
	body, ok := transfer.Body.(wire.RelayTransfer)
	if !ok || !n.verified(transfer) {
		return nil
	}
	if _, seen := n.custody[body.Hash]; seen {
		return nil
	}
	if old, ok := n.pendingIn[body.Hash]; ok {
		n.mem -= int64(len(old.encrypted))
	}
	n.pendingIn[body.Hash] = &pendingTransfer{
		from: transfer.Signer, fm: body.FM, genAt: body.GenAt, encrypted: body.Encrypted,
	}
	n.mem += int64(len(body.Encrypted))
	por := n.signed(now, wire.ProofOfRelay{
		Hash: body.Hash, From: transfer.Signer, To: n.ID(),
	})
	return &por
}

func (n *g2gEpidemicNode) handleKeyReveal(now sim.Time, reveal wire.Signed, from trace.NodeID) {
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
	if m.Dest == n.ID() {
		c.isDest = true
		if res, err := m.Open(n.env.Sys, n.self); err == nil && res.Authentic {
			n.env.Observer.Delivered(body.Hash, now)
		}
	} else if n.behavior.Deviation == Dropper && n.deviates(from) {
		// Message dropper: discard right after the relay phase. The signed
		// PoR it just gave away is now a liability.
		c.dropped = true
		c.raw = nil
	}
	n.takeCustody(c)
}

// takeCustody files a new copy: custody record, relayable list, and its
// share of the memory counter and the expiry bound.
func (n *g2gEpidemicNode) takeCustody(c *g2gCustody) {
	n.custody[c.hash] = c
	if !n.spent(c) {
		orderedInsertCopy(&n.relayable, c)
	}
	n.mem += hashFootprint + c.footprint()
	n.expireAt = min(n.expireAt, c.genAt.Add(n.env.Params.Delta2))
}

// expire drops all state for messages past Δ2.
func (n *g2gEpidemicNode) expire(now sim.Time) {
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
// relay, pending handoffs, and the hash of every handled message.
func (n *g2gEpidemicNode) MemoryBytes() int64 { return n.mem }

// memoryWalk recomputes MemoryBytes from the buffers; RestoreState seeds the
// maintained counter with it.
func (n *g2gEpidemicNode) memoryWalk() int64 {
	total := int64(len(n.custody)) * hashFootprint
	for _, c := range n.custody {
		total += c.footprint()
	}
	for _, p := range n.pendingIn {
		total += int64(len(p.encrypted))
	}
	return total
}

// footprint is the copy's share of MemoryBytes: payload and proofs of relay.
func (c *g2gCustody) footprint() int64 {
	return int64(len(c.raw)) + int64(len(c.pors))*porFootprint
}

// key files the copy under its message hash in the relayable list.
func (c *g2gCustody) key() *g2gcrypto.Digest { return &c.hash }
