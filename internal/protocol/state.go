package protocol

import (
	"bytes"
	"fmt"
	"slices"
	"sort"

	"give2get/internal/g2gcrypto"
	"give2get/internal/message"
	"give2get/internal/sim"
	"give2get/internal/trace"
	"give2get/internal/wire"
)

// Checkpoint support: every node type flattens its maps into sorted slices
// and serializes messages and signed envelopes through their canonical wire
// encodings, so the engine's checkpoint is deterministic (same run state →
// same bytes) and a resumed node is indistinguishable from one that never
// stopped. Slices whose order is protocol-visible (collected PoRs, embedded
// attachments, failed-FQ declarations, pending tests) travel verbatim.

// NodeState is one node's serializable protocol state: the Kind it was
// captured from, the state every node keeps, and the branch of its node
// type, the other left nil.
type NodeState struct {
	Kind  Kind
	Base  BaseState
	Plain *PlainState // Epidemic and Delegation
	G2G   *G2GState   // G2G Epidemic and G2G Delegation
}

// BaseState is the state shared by all protocols.
type BaseState struct {
	Usage     Usage
	Blacklist []trace.NodeID // sorted
	Seq       uint32
}

// PlainState is a plainNode's protocol state. Quality is empty under
// Epidemic.
type PlainState struct {
	Seen    []g2gcrypto.Digest // sorted
	Buffer  []PlainMsg         // sorted by message hash
	Quality []MeetingLog       // sorted by peer
}

// PlainMsg is one buffered message of Epidemic or Delegation; FM is zero
// under Epidemic.
type PlainMsg struct {
	Msg   []byte // message.Message.Marshal()
	GenAt sim.Time
	FM    message.Quality
}

// MeetingLog is one peer's encounter history in a quality table.
type MeetingLog struct {
	Peer  trace.NodeID
	Times []sim.Time // ascending, as recorded
}

// G2GState is a g2gNode's protocol state. The seen set is the custody keys.
// Audited and Quality are empty under G2G Epidemic.
type G2GState struct {
	Custody   []G2GCustodyState      // sorted by hash
	Tests     []TestsEntry           // sorted by hash
	PendingIn []PendingTransferState // sorted by hash
	Audited   []AuditedEntry         // sorted by (responder, frame)
	Quality   []MeetingLog           // sorted by peer
}

// G2GCustodyState is one message custody record of either G2G protocol. The
// delegation-only fields (FM, Attachments, FailedFQ) are zero for G2G
// Epidemic.
type G2GCustodyState struct {
	Msg        []byte // message.Message.Marshal(); raw payload when RawPresent
	RawPresent bool
	GenAt      sim.Time
	FM         message.Quality
	IsSource   bool
	IsDest     bool
	Dropped    bool
	PoRs       [][]byte       // wire.Signed.Marshal(), order preserved
	RelayedTo  []trace.NodeID // sorted
	RelayCount int

	Attachments [][]byte // order preserved
	FailedFQ    [][]byte // order preserved
}

// TestsEntry is the pending sender-test list for one message.
type TestsEntry struct {
	Hash  g2gcrypto.Digest
	Tests []PendingTestState // order preserved
}

// PendingTestState is one relay awaiting (or past) its challenge.
type PendingTestState struct {
	Relay      trace.NodeID
	PoR        []byte // wire.Signed.Marshal()
	LabelGiven message.Quality
	Tested     bool
}

// PendingTransferState is a relay-phase handoff caught between the RELAY and
// KEY steps (it outlives the session when the key reveal fails to verify).
type PendingTransferState struct {
	Hash        g2gcrypto.Digest
	From        trace.NodeID
	FM          message.Quality
	GenAt       sim.Time
	Encrypted   []byte
	Attachments [][]byte // delegation only, order preserved
}

// AuditedEntry is one (responder, frame) pair the destination has audited.
type AuditedEntry struct {
	Responder trace.NodeID
	Frame     message.FrameIndex
}

// --- shared helpers ---

// captureBase starts a node's snapshot with its Kind and shared state.
func (b *base) captureBase() NodeState {
	st := BaseState{Usage: b.usage, Seq: b.seq}
	st.Blacklist = make([]trace.NodeID, 0, len(b.blacklist))
	for id := range b.blacklist {
		st.Blacklist = append(st.Blacklist, id)
	}
	sort.Slice(st.Blacklist, func(i, j int) bool { return st.Blacklist[i] < st.Blacklist[j] })
	return NodeState{Kind: b.kind, Base: st}
}

// restoreBase restores the shared state of a snapshot captured from a node
// of this Kind, carrying its node type's branch (hasBranch), and refuses
// any other.
func (b *base) restoreBase(st NodeState, hasBranch bool) error {
	switch {
	case st.Kind != b.kind:
		return fmt.Errorf("protocol: a %v node cannot restore the state of a %v node", b.kind, st.Kind)
	case !hasBranch:
		return fmt.Errorf("protocol: a %v state without its node type's branch", st.Kind)
	}
	b.usage, b.seq = st.Base.Usage, st.Base.Seq
	b.blacklist = make(map[trace.NodeID]struct{}, len(st.Base.Blacklist))
	for _, id := range st.Base.Blacklist {
		b.blacklist[id] = struct{}{}
	}
	return nil
}

func sortedSeen(seen map[g2gcrypto.Digest]struct{}) []g2gcrypto.Digest {
	out := make([]g2gcrypto.Digest, 0, len(seen))
	for h := range seen {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i][:], out[j][:]) < 0 })
	return out
}

func restoreSeen(hashes []g2gcrypto.Digest) map[g2gcrypto.Digest]struct{} {
	out := make(map[g2gcrypto.Digest]struct{}, len(hashes))
	for _, h := range hashes {
		out[h] = struct{}{}
	}
	return out
}

// sortedPeers returns a sorted copy of a relayedTo list, which holds peers
// in handoff order; only membership matters to the protocol.
func sortedPeers(ids []trace.NodeID) []trace.NodeID {
	out := make([]trace.NodeID, len(ids))
	copy(out, ids)
	slices.Sort(out)
	return out
}

func marshalSignedSlice(sigs []wire.Signed) [][]byte {
	if len(sigs) == 0 {
		return nil
	}
	out := make([][]byte, len(sigs))
	for i, s := range sigs {
		out[i] = s.Marshal()
	}
	return out
}

func unmarshalSignedSlice(data [][]byte) ([]wire.Signed, error) {
	if len(data) == 0 {
		return nil, nil
	}
	out := make([]wire.Signed, len(data))
	for i, raw := range data {
		s, err := wire.UnmarshalSigned(raw)
		if err != nil {
			return nil, fmt.Errorf("protocol: restore signed envelope %d: %w", i, err)
		}
		out[i] = s
	}
	return out, nil
}

func (q *qualityTable) capture() []MeetingLog {
	out := make([]MeetingLog, 0, len(q.meetings))
	for peer, times := range q.meetings {
		out = append(out, MeetingLog{Peer: peer, Times: append([]sim.Time(nil), times...)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Peer < out[j].Peer })
	return out
}

func (q *qualityTable) restore(logs []MeetingLog) {
	q.meetings = make(map[trace.NodeID][]sim.Time, len(logs))
	q.records = 0
	for _, l := range logs {
		q.meetings[l.Peer] = append([]sim.Time(nil), l.Times...)
		q.records += int64(len(l.Times))
	}
}

// --- plain ---

// CaptureState implements Node.
func (n *plainNode) CaptureState() NodeState {
	st := &PlainState{Seen: sortedSeen(n.seen)}
	if n.quality != nil {
		st.Quality = n.quality.capture()
	}
	st.Buffer = make([]PlainMsg, 0, len(n.buffer))
	for _, h := range sortedDigestsInto(&n.digestScratch, n.buffer) {
		c := n.buffer[h]
		st.Buffer = append(st.Buffer, PlainMsg{Msg: c.msg.Marshal(), GenAt: c.genAt, FM: c.fm})
	}
	out := n.captureBase()
	out.Plain = st
	return out
}

// RestoreState implements Node.
func (n *plainNode) RestoreState(st NodeState) error {
	if err := n.restoreBase(st, st.Plain != nil); err != nil {
		return err
	}
	n.seen = restoreSeen(st.Plain.Seen)
	if n.quality != nil {
		n.quality.restore(st.Plain.Quality)
	}
	n.buffer = make(map[g2gcrypto.Digest]*plainCustody, len(st.Plain.Buffer))
	for _, e := range st.Plain.Buffer {
		m, err := message.Unmarshal(e.Msg)
		if err != nil {
			return fmt.Errorf("protocol: restore buffered message: %w", err)
		}
		n.buffer[m.Hash()] = &plainCustody{msg: m, genAt: e.GenAt, fm: e.FM}
	}
	n.bufferOrder = sortedDigestsInto(&n.bufferOrder, n.buffer)
	return nil
}

// --- G2G ---

// CaptureState implements Node. G2G Epidemic leaves the quality fields of
// the state and its records zero.
func (n *g2gNode) CaptureState() NodeState {
	custody := make([]G2GCustodyState, 0, len(n.custody))
	for _, h := range sortedDigestsInto(&n.digestScratch, n.custody) {
		c := n.custody[h]
		e := G2GCustodyState{
			Msg:        c.msg.Marshal(),
			RawPresent: c.raw != nil,
			GenAt:      c.genAt,
			IsSource:   c.isSource,
			IsDest:     c.isDest,
			Dropped:    c.dropped,
			PoRs:       marshalSignedSlice(c.pors),
			RelayedTo:  sortedPeers(c.relayedTo),
			RelayCount: int(c.relayCount),
		}
		if d := c.del; d != nil {
			// The source records its failed-relay declarations; every other
			// copy carries them as attachments.
			e.FM = d.fm
			if c.isSource {
				e.FailedFQ = marshalSignedSlice(d.failedFQ)
			} else {
				e.Attachments = marshalSignedSlice(d.failedFQ)
			}
		}
		custody = append(custody, e)
	}
	tests := make([]TestsEntry, 0, len(n.tests))
	for _, h := range sortedDigestsInto(&n.digestScratch, n.tests) {
		entry := TestsEntry{Hash: h}
		for _, pt := range n.tests[h] {
			entry.Tests = append(entry.Tests, PendingTestState{
				Relay: pt.relay, PoR: pt.por.Marshal(),
				LabelGiven: pt.labelGiven, Tested: pt.tested,
			})
		}
		tests = append(tests, entry)
	}
	pendingIn := make([]PendingTransferState, 0, len(n.pendingIn))
	for _, h := range sortedDigestsInto(&n.digestScratch, n.pendingIn) {
		p := n.pendingIn[h]
		pendingIn = append(pendingIn, PendingTransferState{
			Hash: h, From: p.from, FM: p.fm, GenAt: p.genAt,
			Encrypted:   append([]byte(nil), p.encrypted...),
			Attachments: marshalSignedSlice(p.attachments),
		})
	}
	st := n.captureBase()
	st.G2G = &G2GState{Custody: custody, Tests: tests, PendingIn: pendingIn}
	if n.del == nil {
		return st
	}
	audited := make([]AuditedEntry, 0, len(n.del.audited))
	for k := range n.del.audited {
		audited = append(audited, AuditedEntry{Responder: k.responder, Frame: k.frame})
	}
	sort.Slice(audited, func(i, j int) bool {
		if audited[i].Responder != audited[j].Responder {
			return audited[i].Responder < audited[j].Responder
		}
		return audited[i].Frame < audited[j].Frame
	})
	st.G2G.Audited, st.G2G.Quality = audited, n.del.quality.capture()
	return st
}

// RestoreState implements Node.
func (n *g2gNode) RestoreState(st NodeState) error {
	if err := n.restoreBase(st, st.G2G != nil); err != nil {
		return err
	}
	s := st.G2G
	if n.del != nil {
		n.del.quality.restore(s.Quality)
		n.del.audited = make(map[auditKey]struct{}, len(s.Audited))
		for _, a := range s.Audited {
			n.del.audited[auditKey{responder: a.Responder, frame: a.Frame}] = struct{}{}
		}
	}
	n.custody = make(map[g2gcrypto.Digest]*g2gCustody, len(s.Custody))
	for _, e := range s.Custody {
		c, err := restoreG2GCustody(e, n.del != nil)
		if err != nil {
			return err
		}
		n.custody[c.hash] = c
	}
	n.tests = make(map[g2gcrypto.Digest][]*pendingTest, len(s.Tests))
	for _, entry := range s.Tests {
		list := make([]*pendingTest, len(entry.Tests))
		for i, t := range entry.Tests {
			por, err := wire.UnmarshalSigned(t.PoR)
			if err != nil {
				return fmt.Errorf("protocol: restore pending test: %w", err)
			}
			list[i] = &pendingTest{relay: t.Relay, por: por, labelGiven: t.LabelGiven, tested: t.Tested}
		}
		n.tests[entry.Hash] = list
	}
	n.pendingIn = make(map[g2gcrypto.Digest]*pendingTransfer, len(s.PendingIn))
	for _, p := range s.PendingIn {
		attachments, err := unmarshalSignedSlice(p.Attachments)
		if err != nil {
			return err
		}
		n.pendingIn[p.Hash] = &pendingTransfer{
			from: p.From, fm: p.FM, genAt: p.GenAt,
			encrypted:   append([]byte(nil), p.Encrypted...),
			attachments: attachments,
		}
	}
	n.testsOrder = sortedDigestsInto(&n.testsOrder, n.tests)
	n.relayable = n.relayable[:0]
	for _, h := range sortedDigestsInto(&n.digestScratch, n.custody) {
		if c := n.custody[h]; !n.spent(c) {
			n.relayable = append(n.relayable, c)
		}
	}
	n.mem, n.expireAt = n.memoryWalk(), 0
	return nil
}

// restoreG2GCustody rebuilds one copy; G2G Epidemic ignores the quality
// fields, which it leaves zero.
func restoreG2GCustody(e G2GCustodyState, delegation bool) (*g2gCustody, error) {
	m, err := message.Unmarshal(e.Msg)
	if err != nil {
		return nil, fmt.Errorf("protocol: restore custody message: %w", err)
	}
	pors, err := unmarshalSignedSlice(e.PoRs)
	if err != nil {
		return nil, err
	}
	c := &g2gCustody{
		msg: m, hash: m.Hash(), genAt: e.GenAt,
		isSource: e.IsSource, isDest: e.IsDest, dropped: e.Dropped,
		pors:       pors,
		relayedTo:  slices.Clone(e.RelayedTo),
		relayCount: int32(e.RelayCount),
	}
	if delegation {
		declared := e.Attachments
		if e.IsSource {
			declared = e.FailedFQ
		}
		failedFQ, err := unmarshalSignedSlice(declared)
		if err != nil {
			return nil, err
		}
		c.del = &copyDelegation{fm: e.FM, failedFQ: failedFQ}
	}
	if e.RawPresent {
		c.raw = e.Msg
	}
	return c, nil
}
