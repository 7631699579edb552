// Package invariant is the online run auditor: it shadows a simulation
// through the protocol.Observer seam and checks, event by event, the
// relational guarantees the paper argues for — every delivery traces back to
// a generation, no message moves after its TTL, every Give2Get handoff is
// backed by a verifiable proof of relay, every detection names a genuine
// deviant with a validly evidenced proof of misbehavior, and honest-only
// runs never detect anyone. At the end of the run Finalize reconciles the
// shadow model against the engine's own aggregates (metrics summary,
// telemetry counters, per-node usage) and against the nodes' blacklists, so
// a counter that silently drifted from the event stream is a reported
// violation, not an invisible bug.
//
// The auditor also maintains a canonical digest of the event stream keyed by
// end-to-end message ids (never by H(m), which depends on the crypto
// provider). Events sharing one virtual instant are folded in sorted order —
// their relative emission order only reflects hash-ordered buffer iteration,
// which varies across crypto providers — so two runs of the same
// configuration produce the same digest no matter how many scheduler workers
// ran them, and a FastCrypto run matches a RealCrypto run whenever the
// per-instant event multisets agree (they do for the protocols whose
// decisions are value-independent of the drawn randomness). The differential
// harness in the engine tests is built on exactly this.
//
// The auditor is not safe for concurrent use by itself; like the metrics
// collector it serializes internally, so the single-threaded simulator (and
// a post-run Finalize) use it without ceremony.
package invariant

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"sort"
	"sync"
	"time"

	"give2get/internal/g2gcrypto"
	"give2get/internal/message"
	"give2get/internal/obs"
	"give2get/internal/protocol"
	"give2get/internal/sim"
	"give2get/internal/trace"
	"give2get/internal/wire"
)

// Rule names identify the violated invariant in reports. They are part of
// the audit output format.
const (
	// RuleOrphanReplicate: a Replicated event for a message never generated.
	RuleOrphanReplicate = "orphan-replicate"
	// RuleOrphanDeliver: a Delivered event for a message never generated.
	RuleOrphanDeliver = "orphan-deliver"
	// RuleOrphanDetect: a Detected event citing a message never generated.
	RuleOrphanDetect = "orphan-detect"
	// RuleDuplicateGenerate: two Generated events for the same H(m).
	RuleDuplicateGenerate = "duplicate-generate"
	// RuleSelfAddressed: a message generated to its own source.
	RuleSelfAddressed = "self-addressed"
	// RuleSelfRelay: a handoff from a node to itself.
	RuleSelfRelay = "self-relay"
	// RuleDuplicateHandoff: the same (message, from, to) custody transfer
	// observed twice — a G2G sender's relayedTo list and the receiver's
	// custody membership (the seen set of vanilla Epidemic and Delegation)
	// forbid it.
	RuleDuplicateHandoff = "duplicate-handoff"
	// RuleTimeTravel: an event before its message's generation instant.
	RuleTimeTravel = "time-travel"
	// RulePostTTLRelay: custody transferred at or after generation + Δ1.
	RulePostTTLRelay = "post-ttl-relay"
	// RulePostTTLDeliver: a delivery at or after generation + Δ1.
	RulePostTTLDeliver = "post-ttl-deliver"
	// RuleUnexpectedDetection: any detection in a run with no deviants.
	RuleUnexpectedDetection = "unexpected-detection"
	// RuleFalseAccusation: a detection naming a node outside the deviant set.
	RuleFalseAccusation = "false-accusation"
	// RuleWrongReason: a detection whose reason does not match the deviation
	// the deviants actually play.
	RuleWrongReason = "wrong-reason"
	// RuleTTLMismatch: a detection whose reported TTL expiry is not
	// generation + Δ1 of the exposing message.
	RuleTTLMismatch = "ttl-mismatch"
	// RuleLateDetection: a detection after generation + Δ2, when all state
	// for the message must already be discarded.
	RuleLateDetection = "late-detection"
	// RuleUndetectedFailure: a failed test-phase challenge that was not
	// followed by a detection of the challenged relay.
	RuleUndetectedFailure = "undetected-failure"
	// RuleBadPoR: a proof of relay that does not verify against the crypto
	// provider, or is signed by a node other than the custodian it names.
	RuleBadPoR = "bad-por"
	// RuleUnmatchedPoR: a proof of relay for a handoff the observer never
	// reported (or reported fewer times than it was proven).
	RuleUnmatchedPoR = "unmatched-por"
	// RuleMissingPoR: a G2G handoff that produced no verifiable proof of
	// relay.
	RuleMissingPoR = "missing-por"
	// RuleBadPoM: a broadcast proof of misbehavior with an invalid envelope
	// or evidence, or naming a different node than the detection it backs.
	RuleBadPoM = "bad-pom"
	// RuleMissingPoM: a Detected event with no broadcast PoM backing it.
	RuleMissingPoM = "missing-pom"
	// RuleMissingBlacklist: a node that did not blacklist a detected
	// deviant by the end of the run (blacklists only grow).
	RuleMissingBlacklist = "missing-blacklist"
	// RuleAccountingMismatch: the shadow model disagrees with the engine's
	// aggregates (metrics summary, telemetry counters, or usage totals).
	RuleAccountingMismatch = "accounting-mismatch"
)

// The auditor's fixed bounds: how many trailing events per message are kept
// for violation excerpts, and how many violations a report retains (it still
// counts the overflow).
const (
	timelineDepth = 8
	maxViolations = 100
)

// Options is the caller-facing audit configuration (the engine config and
// the public API embed it).
type Options struct {
	// Label tags the report and its violations with the run's identity
	// (sweep spec label, CLI invocation, ...).
	Label string
	// AssumeHonest audits the run as if its deviant set were empty: every
	// detection then violates the honest-run rules (unexpected-detection,
	// false-accusation). It is the supported way to drive the violation
	// machinery end-to-end with a genuine run — a faithful audit of a
	// faithful engine cannot fail by construction — and is how the runner's
	// TestAssumeHonestFailsStrictAudit makes a real run fail StrictAudit.
	AssumeHonest bool
}

// Config fully describes what one auditor instance checks. The engine
// assembles it from its own run configuration.
type Config struct {
	Options
	// Sys is the run's crypto provider; PoR/PoM re-verification needs it.
	Sys g2gcrypto.System
	// Params are the run's protocol constants (Δ1/Δ2 bound the lifecycle).
	Params protocol.Params
	// Population is the node count (blacklist reconciliation walks it).
	Population int
	// Deviants is the ground-truth deviant set.
	Deviants []trace.NodeID
	// Deviation is the strategy the deviants play.
	Deviation protocol.Deviation
	// G2G marks a run whose protocol carries the accountability machinery:
	// every handoff must then be PoR-backed.
	G2G bool
	// SharedTelemetry marks a run recording into a registry shared across a
	// sweep; per-run telemetry reconciliation is skipped (the counters hold
	// the whole batch).
	SharedTelemetry bool
}

// msgState is the shadow lifecycle of one message.
type msgState struct {
	id        message.ID
	src, dst  trace.NodeID
	genAt     sim.Time
	delivered bool
	replicas  int
	// timeline is the trailing event excerpt attached to violations.
	timeline []obs.Record
}

// handoff keys one custody transfer for the PoR reconciliation.
type handoff struct {
	hash     g2gcrypto.Digest
	from, to trace.NodeID
}

// pendingFailure is a failed test awaiting its matching detection.
type pendingFailure struct {
	accused trace.NodeID
	at      sim.Time
}

// Auditor is the online shadow model. Create one per run with New, feed it
// through the observer seam, then call Finalize exactly once.
type Auditor struct {
	mu  sync.Mutex
	cfg Config
	// scratch never signs, so every re-verification reaches the provider.
	scratch wire.Scratch

	msgs map[g2gcrypto.Digest]*msgState

	events     int64
	hasher     hash.Hash
	pending    [][]byte // canonical records at pendingAt, not yet folded
	pendingAt  sim.Time
	generated  int
	delivered  int // unique first deliveries
	replicated int
	testsRun   int
	testsFail  int

	deliveries []message.ID
	detections []Detection

	replicatedBy map[handoff]int
	provenBy     map[handoff]int

	pendingFailures []pendingFailure
	pomReported     int
	// pomDue marks the last detection of a G2G run, of message dueHash, as
	// still awaiting the PoM broadcast that must immediately follow it.
	pomDue     bool
	dueHash    g2gcrypto.Digest
	deviantSet map[trace.NodeID]struct{}

	violations    []Violation
	violationsAll int
}

// New builds an auditor for one run.
func New(cfg Config) *Auditor {
	a := &Auditor{
		cfg:          cfg,
		msgs:         make(map[g2gcrypto.Digest]*msgState),
		hasher:       sha256.New(),
		replicatedBy: make(map[handoff]int),
		provenBy:     make(map[handoff]int),
		deviantSet:   make(map[trace.NodeID]struct{}, len(cfg.Deviants)),
	}
	for _, d := range cfg.Deviants {
		a.deviantSet[d] = struct{}{}
	}
	return a
}

// expectedReason maps the configured deviation to the one misbehavior class
// its detections may carry.
func expectedReason(d protocol.Deviation) (wire.MisbehaviorReason, bool) {
	switch d {
	case protocol.Dropper:
		return wire.ReasonDropped, true
	case protocol.Liar:
		return wire.ReasonLied, true
	case protocol.Cheater:
		return wire.ReasonCheated, true
	default:
		return 0, false
	}
}

// hashEvent folds one canonical event into the stream digest. Events are
// keyed by message id, never H(m): ids are assigned by senders from (node,
// sequence) and so are identical across crypto providers, while H(m) covers
// provider-dependent sealed bytes. Records are buffered per virtual instant
// and folded sorted (see flushDigest): emission order within one instant is
// an artifact of hash-ordered buffer iteration, not protocol behavior.
func (a *Auditor) hashEvent(tag byte, id message.ID, x, y int64, at sim.Time, extra int64) {
	a.events++
	buf := make([]byte, 0, 41)
	buf = append(buf, tag)
	buf = binary.BigEndian.AppendUint64(buf, uint64(id))
	buf = binary.BigEndian.AppendUint64(buf, uint64(x))
	buf = binary.BigEndian.AppendUint64(buf, uint64(y))
	buf = binary.BigEndian.AppendUint64(buf, uint64(at))
	buf = binary.BigEndian.AppendUint64(buf, uint64(extra))
	if len(a.pending) > 0 && at != a.pendingAt {
		a.flushDigest()
	}
	a.pendingAt = at
	a.pending = append(a.pending, buf)
}

// flushDigest folds the pending instant's records into the hasher in sorted
// order, making the digest canonical across within-instant orderings.
func (a *Auditor) flushDigest() {
	sort.Slice(a.pending, func(i, j int) bool { return bytes.Compare(a.pending[i], a.pending[j]) < 0 })
	for _, rec := range a.pending {
		a.hasher.Write(rec)
	}
	a.pending = a.pending[:0]
}

// note appends rec to the message's trailing timeline excerpt.
func (m *msgState) note(rec obs.Record) {
	if len(m.timeline) >= timelineDepth {
		copy(m.timeline, m.timeline[1:])
		m.timeline = m.timeline[:len(m.timeline)-1]
	}
	m.timeline = append(m.timeline, rec)
}

// record is the event shorthand shared by the observer entry points.
func record(at sim.Time, event string) obs.Record {
	return obs.NewRecord(time.Duration(at), obs.LevelInfo, event)
}

// violate records a violation, attaching the message context and timeline
// excerpt when the message is known.
func (a *Auditor) violate(rule string, m *msgState, h g2gcrypto.Digest, at sim.Time, format string, args ...any) {
	a.violationsAll++
	if len(a.violations) >= maxViolations {
		return
	}
	v := Violation{
		Rule:   rule,
		Label:  a.cfg.Label,
		Detail: fmt.Sprintf(format, args...),
		At:     at,
	}
	if h != (g2gcrypto.Digest{}) {
		v.Msg = hex.EncodeToString(h[:4])
	}
	if m != nil {
		v.MsgID = uint64(m.id)
		v.Timeline = make([]string, len(m.timeline))
		for i, rec := range m.timeline {
			v.Timeline[i] = rec.String()
		}
	}
	a.violations = append(a.violations, v)
}

// Generated implements the protocol.Observer shape.
func (a *Auditor) Generated(h g2gcrypto.Digest, id message.ID, src, dst trace.NodeID, at sim.Time) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.hashEvent('G', id, int64(src), int64(dst), at, 0)
	if old, ok := a.msgs[h]; ok {
		a.violate(RuleDuplicateGenerate, old, h, at,
			"message %d generated again (first at %v)", id, old.genAt)
		return
	}
	m := &msgState{id: id, src: src, dst: dst, genAt: at}
	rec := record(at, "generate")
	rec.From, rec.To = int(src), int(dst)
	m.note(rec)
	a.msgs[h] = m
	a.generated++
	if src == dst {
		a.violate(RuleSelfAddressed, m, h, at, "source %d is its own destination", src)
	}
}

// Replicated implements the protocol.Observer shape.
func (a *Auditor) Replicated(h g2gcrypto.Digest, from, to trace.NodeID, at sim.Time) {
	a.mu.Lock()
	defer a.mu.Unlock()
	m := a.msgs[h]
	var id message.ID
	if m != nil {
		id = m.id
	}
	a.hashEvent('R', id, int64(from), int64(to), at, 0)
	a.replicated++
	if m == nil {
		a.violate(RuleOrphanReplicate, nil, h, at,
			"handoff %d→%d of a message never generated", from, to)
		return
	}
	rec := record(at, "replicate")
	rec.From, rec.To = int(from), int(to)
	m.note(rec)
	m.replicas++
	k := handoff{hash: h, from: from, to: to}
	a.replicatedBy[k]++
	switch {
	case from == to:
		a.violate(RuleSelfRelay, m, h, at, "node %d handed the message to itself", from)
	case a.replicatedBy[k] > 1:
		a.violate(RuleDuplicateHandoff, m, h, at,
			"handoff %d→%d observed %d times", from, to, a.replicatedBy[k])
	}
	if at < m.genAt {
		a.violate(RuleTimeTravel, m, h, at,
			"handoff %d→%d before generation at %v", from, to, m.genAt)
	}
	if expiry := m.genAt.Add(a.cfg.Params.Delta1); at >= expiry {
		a.violate(RulePostTTLRelay, m, h, at,
			"handoff %d→%d at or after TTL expiry %v", from, to, expiry)
	}
}

// Delivered implements the protocol.Observer shape.
func (a *Auditor) Delivered(h g2gcrypto.Digest, at sim.Time) {
	a.mu.Lock()
	defer a.mu.Unlock()
	m := a.msgs[h]
	var id message.ID
	if m != nil {
		id = m.id
	}
	a.hashEvent('D', id, 0, 0, at, 0)
	if m == nil {
		a.violate(RuleOrphanDeliver, nil, h, at, "delivery of a message never generated")
		return
	}
	m.note(record(at, "deliver"))
	if at < m.genAt {
		a.violate(RuleTimeTravel, m, h, at, "delivery before generation at %v", m.genAt)
	}
	if expiry := m.genAt.Add(a.cfg.Params.Delta1); at >= expiry {
		a.violate(RulePostTTLDeliver, m, h, at, "delivery at or after TTL expiry %v", expiry)
	}
	// Duplicate deliveries are legal (several custodians can reach the
	// destination within one contact instant); only the first counts.
	if !m.delivered {
		m.delivered = true
		a.delivered++
		a.deliveries = append(a.deliveries, m.id)
	}
}

// Tested implements the protocol.Observer shape.
func (a *Auditor) Tested(accused trace.NodeID, passed bool, at sim.Time) {
	a.mu.Lock()
	defer a.mu.Unlock()
	flag := int64(0)
	if passed {
		flag = 1
	}
	a.hashEvent('T', 0, int64(accused), flag, at, 0)
	a.testsRun++
	if !passed {
		a.testsFail++
		a.pendingFailures = append(a.pendingFailures, pendingFailure{accused: accused, at: at})
	}
}

// Detected implements the protocol.Observer shape.
func (a *Auditor) Detected(accused trace.NodeID, reason wire.MisbehaviorReason, h g2gcrypto.Digest, at, ttlExpiry sim.Time) {
	a.mu.Lock()
	defer a.mu.Unlock()
	m := a.msgs[h]
	var id message.ID
	if m != nil {
		id = m.id
	}
	a.hashEvent('X', id, int64(accused), int64(reason), at, int64(ttlExpiry))
	a.checkPoMBacked()
	a.detections = append(a.detections, Detection{
		Accused: accused, Reason: reason.String(), MsgID: uint64(id), At: at,
	})
	a.pomDue, a.dueHash = a.cfg.G2G, h
	if m != nil {
		rec := record(at, "detect")
		rec.Node = int(accused)
		rec.Reason = reason.String()
		m.note(rec)
	}

	// Soundness: detections may only name genuine deviants, with the reason
	// their configured deviation produces; an honest-only run must stay
	// silent.
	if len(a.deviantSet) == 0 {
		a.violate(RuleUnexpectedDetection, m, h, at,
			"node %d detected (%v) in a run with no deviants", accused, reason)
	} else if _, ok := a.deviantSet[accused]; !ok {
		a.violate(RuleFalseAccusation, m, h, at,
			"honest node %d accused of %v", accused, reason)
	} else if want, ok := expectedReason(a.cfg.Deviation); ok && reason != want {
		a.violate(RuleWrongReason, m, h, at,
			"deviant %d plays %v but was detected for %v", accused, a.cfg.Deviation, reason)
	}
	switch {
	case m == nil:
		a.violate(RuleOrphanDetect, nil, h, at,
			"detection of %d cites a message never generated", accused)
	default:
		if want := m.genAt.Add(a.cfg.Params.Delta1); ttlExpiry != want {
			a.violate(RuleTTLMismatch, m, h, at,
				"reported TTL expiry %v, generation+Δ1 is %v", ttlExpiry, want)
		}
		if limit := m.genAt.Add(a.cfg.Params.Delta2); at > limit {
			a.violate(RuleLateDetection, m, h, at,
				"detection after state-discard deadline %v", limit)
		}
	}

	// Completeness of the test phase: a failed challenge at this instant
	// against this node is now accounted for.
	for i, p := range a.pendingFailures {
		if p.accused == accused && p.at == at {
			a.pendingFailures = append(a.pendingFailures[:i], a.pendingFailures[i+1:]...)
			break
		}
	}
}

// RelayProven implements protocol.RelayObserver: it re-verifies each proof
// of relay against the crypto provider and reconciles it with the handoff
// the observer reported.
func (a *Auditor) RelayProven(por wire.Signed, at sim.Time) {
	a.mu.Lock()
	defer a.mu.Unlock()
	body, ok := por.Body.(wire.ProofOfRelay)
	if !ok {
		a.violate(RuleBadPoR, nil, g2gcrypto.Digest{}, at, "proven relay carries a %T body", por.Body)
		return
	}
	m := a.msgs[body.Hash]
	if !a.scratch.Verify(a.cfg.Sys, por) {
		a.violate(RuleBadPoR, m, body.Hash, at,
			"PoR %d→%d does not verify", body.From, body.To)
	}
	if por.Signer != body.To {
		a.violate(RuleBadPoR, m, body.Hash, at,
			"PoR names custodian %d but is signed by %d", body.To, por.Signer)
	}
	k := handoff{hash: body.Hash, from: body.From, to: body.To}
	a.provenBy[k]++
	if a.provenBy[k] > a.replicatedBy[k] {
		a.violate(RuleUnmatchedPoR, m, body.Hash, at,
			"PoR for handoff %d→%d exceeds its observed replications (%d > %d)",
			body.From, body.To, a.provenBy[k], a.replicatedBy[k])
	}
}

// MisbehaviorReported implements protocol.PoMObserver: it re-validates each
// broadcast proof of misbehavior and ties it to the detection it backs.
func (a *Auditor) MisbehaviorReported(pom wire.Signed, at sim.Time) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.pomReported++
	body, ok := pom.Body.(wire.Misbehavior)
	if !ok {
		a.violate(RuleBadPoM, nil, g2gcrypto.Digest{}, at, "PoM carries a %T body", pom.Body)
		return
	}
	if !a.scratch.Verify(a.cfg.Sys, pom) {
		a.violate(RuleBadPoM, nil, g2gcrypto.Digest{}, at,
			"PoM against %d has an invalid envelope", body.Accused)
	}
	if !body.ValidEvidence(&a.scratch, a.cfg.Sys) {
		a.violate(RuleBadPoM, nil, g2gcrypto.Digest{}, at,
			"PoM against %d has invalid evidence", body.Accused)
	}
	if n := len(a.detections); n == 0 || a.detections[n-1].Accused != body.Accused || a.detections[n-1].At != at {
		a.violate(RuleBadPoM, nil, g2gcrypto.Digest{}, at,
			"PoM against %d does not match the preceding detection", body.Accused)
		return
	}
	a.pomDue = false
}

// checkPoMBacked raises RuleMissingPoM if the last detection of a G2G run
// was not followed by its PoM broadcast.
func (a *Auditor) checkPoMBacked() {
	if !a.pomDue {
		return
	}
	a.pomDue = false
	d := a.detections[len(a.detections)-1]
	a.violate(RuleMissingPoM, a.msgs[a.dueHash], a.dueHash, d.At,
		"detection of %d (%s) over message %d has no PoM broadcast backing it", d.Accused, d.Reason, d.MsgID)
}
