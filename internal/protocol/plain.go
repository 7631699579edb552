package protocol

import (
	"give2get/internal/g2gcrypto"
	"give2get/internal/message"
	"give2get/internal/obs"
	"give2get/internal/sim"
	"give2get/internal/trace"
	"give2get/internal/wire"
)

// plainNode implements the two vanilla baselines. Epidemic Forwarding
// (Vahdat & Becker) hands a peer every live message it has not seen.
// Delegation Forwarding (Erramilli et al.), in both the Destination
// Frequency and Destination Last Contact flavors, is Epidemic plus one rule:
// a message labelled with forwarding quality f_m is replicated to a peer
// exactly when the peer's quality toward the destination exceeds f_m, and
// both copies are relabelled with the peer's quality. Neither has any
// accountability machinery, which is why droppers collapse both (Figs. 3
// and 5) and liars, who report quality zero to avoid ever qualifying, starve
// Delegation.
type plainNode struct {
	base
	// quality is Delegation's encounter history; nil under Epidemic.
	quality *qualityTable
	seen    map[g2gcrypto.Digest]struct{}
	buffer  map[g2gcrypto.Digest]*plainCustody
	// bufferOrder mirrors the buffer keys in sorted order (see
	// orderedInsert); the relay phase iterates it instead of re-sorting per
	// contact.
	bufferOrder []g2gcrypto.Digest
}

type plainCustody struct {
	msg   *message.Message
	genAt sim.Time
	// fm is Delegation's quality label; zero under Epidemic.
	fm message.Quality
}

var _ Node = (*plainNode)(nil)

func newPlainNode(env *Env, self g2gcrypto.Identity, behavior Behavior, kind Kind) *plainNode {
	n := &plainNode{
		base:   newBase(env, self, behavior, kind),
		seen:   make(map[g2gcrypto.Digest]struct{}),
		buffer: make(map[g2gcrypto.Digest]*plainCustody),
	}
	if kind.IsDelegation() {
		n.quality = newQualityTable(env.Params.QualityFrame)
	}
	return n
}

// Generate implements Node. Under Delegation the fresh message is labelled
// with the sender's own forwarding quality toward the destination.
func (n *plainNode) Generate(now sim.Time, dest trace.NodeID, body []byte) error {
	m, id, err := n.newMessage(dest, body)
	if err != nil {
		return err
	}
	c := &plainCustody{msg: m, genAt: now}
	if n.quality != nil {
		c.fm = n.quality.qualityAt(dest, now, n.kind.UsesFrequency())
	}
	h := m.Hash()
	n.seen[h] = struct{}{}
	n.buffer[h] = c
	orderedInsert(&n.bufferOrder, h)
	n.env.Observer.Generated(h, id, n.ID(), dest, now)
	return nil
}

// ObserveMeeting implements Node. Epidemic keeps no quality state.
func (n *plainNode) ObserveMeeting(now sim.Time, peer trace.NodeID) {
	if n.quality == nil {
		return
	}
	n.noteQualityUpdate()
	n.quality.observe(now, peer)
}

// DeliverPoM implements Node. The vanilla protocols have no misbehavior
// handling; broadcasts are ignored.
func (n *plainNode) DeliverPoM(wire.Signed) {}

// reportQuality answers a quality query from a peer. A liar deviating
// against the asker claims zero.
func (n *plainNode) reportQuality(now sim.Time, asker, dest trace.NodeID) message.Quality {
	if n.behavior.Deviation == Liar && n.deviates(asker) {
		return 0
	}
	return n.quality.qualityAt(dest, now, n.kind.UsesFrequency())
}

// RunSession implements Node: hand the peer every live message it has not
// seen, under Delegation only those it qualifies for.
func (n *plainNode) RunSession(now sim.Time, peer Node) bool {
	n.mustMatch(peer)
	other := peer.(*plainNode)
	n.expire(now)
	n.env.spans.Enter(obs.SpanRelay)
	defer n.env.spans.Exit()
	transferred := false
	// Snapshot the maintained order; receive() mutates only the peer's maps,
	// the copy guards the iteration against future edits.
	n.digestScratch = append(n.digestScratch[:0], n.bufferOrder...)
	for _, h := range n.digestScratch {
		c := n.buffer[h]
		if _, dup := other.seen[h]; dup {
			continue
		}
		// Delegation replicates only to a better relay and relabels both
		// copies with its quality; direct delivery ignores quality.
		if n.quality != nil && c.msg.Dest != other.ID() {
			fPeer := other.reportQuality(now, n.ID(), c.msg.Dest)
			if !fPeer.Better(c.fm) {
				continue
			}
			c.fm = fPeer
		}
		size := messageFootprint(c.msg)
		n.noteTx(size)
		other.noteRx(size)
		other.receive(now, n.ID(), c)
		n.env.Observer.Replicated(h, n.ID(), other.ID(), now)
		transferred = true
	}
	return transferred
}

// receive takes custody of (or drops) a copy of from's record c.
func (n *plainNode) receive(now sim.Time, from trace.NodeID, c *plainCustody) {
	h := c.msg.Hash()
	n.seen[h] = struct{}{}
	if c.msg.Dest == n.ID() {
		n.env.Observer.Delivered(h, now)
		return
	}
	// A dropper uses the system but discards everything it relays, right
	// after the transfer completes.
	if n.behavior.Deviation == Dropper && n.deviates(from) {
		return
	}
	copied := *c
	n.buffer[h] = &copied
	orderedInsert(&n.bufferOrder, h)
}

// expire enforces the TTL (Δ1): expired messages leave the buffer.
func (n *plainNode) expire(now sim.Time) {
	kept := n.bufferOrder[:0]
	for _, h := range n.bufferOrder {
		if now >= n.buffer[h].genAt.Add(n.env.Params.Delta1) {
			delete(n.buffer, h)
			continue
		}
		kept = append(kept, h)
	}
	n.bufferOrder = kept
}

// MemoryBytes implements MemoryMeter: buffered payloads, the hash of every
// message seen, and Delegation's quality history.
func (n *plainNode) MemoryBytes() int64 {
	var total int64
	for _, c := range n.buffer {
		total += int64(messageFootprint(c.msg))
	}
	total += int64(len(n.seen)) * hashFootprint
	if n.quality != nil {
		total += n.quality.historyBytes()
	}
	return total
}
