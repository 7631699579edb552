package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"

	"give2get/internal/invariant"
	"give2get/internal/metrics"
	"give2get/internal/obs"
	"give2get/internal/protocol"
	"give2get/internal/sim"
	"give2get/internal/trace"
)

// Checkpointing serializes a run's full deterministic state — virtual clock,
// future event set, RNG stream position, per-node protocol state, metrics,
// and the auditor's shadow model — into a versioned, checksummed file written
// atomically (temp file + rename, so a crash mid-write never corrupts the
// previous good checkpoint). Resume rebuilds the engine from the same Config,
// restores the snapshot, and continues; because snapshots are taken at a
// control barrier that fires after every same-instant protocol event, a
// killed-and-resumed run replays the exact event sequence of an uninterrupted
// one, down to the audit digest.

// CheckpointConfig configures periodic checkpoint emission.
type CheckpointConfig struct {
	// Path is the checkpoint file; each emission atomically replaces it.
	Path string
	// Every is the virtual-time period between checkpoints. 0 disables
	// periodic emission; a graceful shutdown still flushes one final
	// checkpoint to Path when Path is set.
	Every sim.Time
}

// Checkpoint and resume errors.
var (
	// ErrCheckpointCorrupt marks a checkpoint file that failed structural
	// validation: bad magic, truncation, checksum mismatch, an undecodable
	// payload, or a stored event that cannot belong to the run.
	ErrCheckpointCorrupt = errors.New("engine: corrupt checkpoint")
	// ErrCheckpointVersion marks a checkpoint from an incompatible format
	// version.
	ErrCheckpointVersion = errors.New("engine: unsupported checkpoint version")
	// ErrCheckpointMismatch marks a structurally valid checkpoint that was
	// captured under a different configuration or trace.
	ErrCheckpointMismatch = errors.New("engine: checkpoint does not match configuration")
	// ErrInterrupted is returned by an interrupted run (context cancellation
	// or a scheduled stop); any configured checkpoint was flushed first.
	ErrInterrupted = errors.New("engine: run interrupted")
)

const (
	checkpointMagic   = "G2GC"
	checkpointVersion = 4
	// checkpointHeaderLen is magic + version + SHA-256 checksum.
	checkpointHeaderLen = 4 + 4 + sha256.Size
)

// PriControl is the priority band of the engine's control events (periodic
// checkpoints, graceful stops). It is the last band, so a control event
// fires only after every same-instant protocol event — the barrier that
// makes a mid-run snapshot equivalent to a between-instants one.
const PriControl int64 = priPeriodic + 1

// Control-event payloads (sim.Event.P).
const (
	ctrlPeriodic uint64 = iota
	ctrlStop
)

// queuedEvent is one future event as a checkpoint stores it: a sim.Event
// without its handler (always the engine) and its scheduling order (the
// list order).
type queuedEvent struct {
	At   sim.Time
	Pri  int64
	Op   uint32
	A, B int32
	P    uint64
}

// checkpoint is the serialized run state. Every map beneath it is flattened
// in sorted order, so identical run states encode to identical payloads.
type checkpoint struct {
	Fingerprint [32]byte
	Now         sim.Time

	// Contact scheduler: how many contacts the cursor has yielded, the
	// running SHA-256 over them (see engine.noteContact), and whether the
	// cursor is closed, at the end of the stream or at the run's end. While
	// it is open, the last contact yielded is the one whose start event is
	// queued.
	CursorClosed bool
	StreamEnded  bool
	CursorIdx    int
	Contacts     [sha256.Size]byte

	// Events is the future event set in firing order, control events left
	// out: one contact end per active contact, the contact start while the
	// cursor is open, the next workload generation (the generations
	// themselves are redrawn from the seed on resume), the next memory tick
	// and the phase probes still ahead.
	Events []queuedEvent

	EnvRNG sim.RNGState

	Nodes     []protocol.NodeState
	Collector metrics.CollectorState
	Counters  obs.CounterState
	Auditor   *invariant.State
}

// ConfigFingerprint hashes every deterministic run parameter; of the trace
// it takes only the population. A checkpoint resumes, and a sweep journal
// entry restores, only under a configuration with the same fingerprint (a
// checkpoint also pins the contacts it has read).
func ConfigFingerprint(cfg Config) [32]byte {
	crypto := cfg.Crypto
	if crypto == "" {
		crypto = CryptoFast
	}
	population := 0
	if cfg.Trace != nil {
		population = cfg.Trace.Nodes()
	}
	h := sha256.New()
	fmt.Fprintf(h, "proto=%d seed=%d crypto=%s pop=%d\n",
		cfg.Protocol, cfg.Seed, crypto, population)
	fmt.Fprintf(h, "params=%d,%d,%d,%d,%d\n",
		cfg.Params.Delta1, cfg.Params.Delta2, cfg.Params.MaxRelays,
		cfg.Params.HeavyHMACIterations, cfg.Params.QualityFrame)
	fmt.Fprintf(h, "window=%d,%d warmup=%d extra=%d\n",
		cfg.WindowFrom, cfg.WindowTo, cfg.Warmup, cfg.RunExtra)
	fmt.Fprintf(h, "interval=%d quiet=%d payload=%d\n",
		cfg.MessageInterval, cfg.GenerationQuiet, payloadBytes)
	fmt.Fprintf(h, "deviants=%v deviation=%d outsiders=%t audit=%t\n",
		cfg.Deviants, cfg.Deviation, cfg.OnlyOutsiders, cfg.Audit != nil)
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// encodeCheckpoint renders the full file: magic, version, checksum, payload.
func encodeCheckpoint(ck *checkpoint) ([]byte, error) {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(ck); err != nil {
		return nil, fmt.Errorf("engine: encode checkpoint: %w", err)
	}
	sum := sha256.Sum256(payload.Bytes())
	out := make([]byte, 0, checkpointHeaderLen+payload.Len())
	out = append(out, checkpointMagic...)
	out = binary.BigEndian.AppendUint32(out, checkpointVersion)
	out = append(out, sum[:]...)
	out = append(out, payload.Bytes()...)
	return out, nil
}

// parseCheckpoint validates and decodes a checkpoint file. It never panics:
// truncation, bit flips, a bad magic or version, and undecodable payloads
// all come back as errors.
func parseCheckpoint(data []byte) (*checkpoint, error) {
	if len(data) < checkpointHeaderLen {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the header", ErrCheckpointCorrupt, len(data))
	}
	if string(data[:4]) != checkpointMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCheckpointCorrupt, data[:4])
	}
	if v := binary.BigEndian.Uint32(data[4:8]); v != checkpointVersion {
		return nil, fmt.Errorf("%w: version %d (want %d)", ErrCheckpointVersion, v, checkpointVersion)
	}
	var sum [sha256.Size]byte
	copy(sum[:], data[8:checkpointHeaderLen])
	payload := data[checkpointHeaderLen:]
	if sha256.Sum256(payload) != sum {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCheckpointCorrupt)
	}
	ck := new(checkpoint)
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(ck); err != nil {
		return nil, fmt.Errorf("%w: decode payload: %v", ErrCheckpointCorrupt, err)
	}
	return ck, nil
}

// captureCheckpoint snapshots the run at a control barrier. Everything still
// in the queue is strictly in the future (the barrier fired after all
// same-instant events), so the stored event list is the whole future of the
// run apart from the control events, which the resuming process schedules
// for itself.
func (e *engine) captureCheckpoint(s *sim.Simulator) (*checkpoint, error) {
	ck := &checkpoint{
		Fingerprint:  ConfigFingerprint(e.cfg),
		Now:          s.Now(),
		CursorClosed: e.cursor == nil,
		StreamEnded:  e.streamEnded,
		CursorIdx:    e.cursorIdx,
		EnvRNG:       e.env.RNG.State(),
		Collector:    e.collector.State(),
		Counters:     e.metrics.CounterState(),
	}
	e.contacts.Sum(ck.Contacts[:0])
	s.PendingEvents(func(ev sim.Event) {
		if ev.Op != opControl {
			ck.Events = append(ck.Events, queuedEvent{At: ev.At, Pri: ev.Pri, Op: ev.Op, A: ev.A, B: ev.B, P: ev.P})
		}
	})
	if err := e.checkEvents(ck); err != nil {
		return nil, err
	}
	ck.Nodes = make([]protocol.NodeState, len(e.nodes))
	for i, n := range e.nodes {
		ck.Nodes[i] = n.CaptureState()
	}
	if e.auditor != nil {
		ast, err := e.auditor.State()
		if err != nil {
			return nil, err
		}
		ck.Auditor = &ast
	}
	return ck, nil
}

// writeCheckpoint captures and atomically persists one checkpoint: the file
// at the path is always either the previous checkpoint or the new one, never
// a torn write.
func (e *engine) writeCheckpoint(s *sim.Simulator) error {
	ck, err := e.captureCheckpoint(s)
	if err != nil {
		return err
	}
	data, err := encodeCheckpoint(ck)
	if err != nil {
		return err
	}
	return trace.WriteFileAtomic(e.cfg.Checkpoint.Path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// Resume restores a checkpointed run and continues it to completion. cfg
// must be the same configuration the checkpoint was written under (verified
// by fingerprint); it may carry a different Checkpoint, Context, or output
// sinks — those describe the resuming process, not the run state.
func Resume(path string, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Crypto == CryptoReal {
		return nil, errors.New("engine: resume requires the deterministic fast crypto provider")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ck, err := parseCheckpoint(data)
	if err != nil {
		return nil, err
	}
	e, err := newEngine(cfg)
	if err != nil {
		return nil, err
	}
	if ck.Fingerprint != ConfigFingerprint(e.cfg) {
		return nil, fmt.Errorf("%w: fingerprint mismatch", ErrCheckpointMismatch)
	}
	s := sim.New()
	s.SetStats(&e.metrics.Sim)
	defer e.closeCursor()
	if err := e.restoreCheckpoint(s, ck); err != nil {
		return nil, err
	}
	switch now := s.Now(); {
	case now < e.cfg.WindowFrom:
		e.emitPhase(now, obs.PhaseWarmup)
	case now < e.cfg.WindowTo:
		e.emitPhase(now, obs.PhaseWindow)
	default:
		e.emitPhase(now, obs.PhaseDrain)
	}
	return e.finishRun(s)
}

// checkEvents validates a checkpoint's event list against the run before
// any of it is replayed. The file checksum is unkeyed, so an edited or
// foreign file passes it; a node id outside the population would otherwise
// panic deep inside the restore. Capture runs the same check on what it is
// about to write. The workload must already be drawn.
func (e *engine) checkEvents(ck *checkpoint) error {
	population := int32(len(e.nodes))
	starts, gens := 0, 0
	for _, ev := range ck.Events {
		if ev.At < ck.Now {
			return fmt.Errorf("%w: event at %v precedes the snapshot at %v", ErrCheckpointCorrupt, ev.At, ck.Now)
		}
		switch ev.Op {
		case opContactStart:
			starts++
			if ck.CursorIdx < 1 || ev.P != uint64(ck.CursorIdx-1) || ev.Pri != 2*int64(ev.P) {
				return fmt.Errorf("%w: contact start disagrees with the cursor position", ErrCheckpointCorrupt)
			}
		case opContactEnd:
			if ev.A < 0 || ev.A >= population || ev.B < 0 || ev.B >= population || ev.A == ev.B {
				return fmt.Errorf("%w: contact end names a node outside the population", ErrCheckpointCorrupt)
			}
		case opWorkloadGen:
			gens++
			if ev.P >= uint64(len(e.gens)) {
				return fmt.Errorf("%w: workload position %d of %d", ErrCheckpointCorrupt, ev.P, len(e.gens))
			}
		case opMemoryTick, opWindowFrom, opWindowTo:
		default:
			return fmt.Errorf("%w: unknown event op %d", ErrCheckpointCorrupt, ev.Op)
		}
	}
	if starts > 1 || gens > 1 || (starts == 1) == ck.CursorClosed || (ck.StreamEnded && !ck.CursorClosed) {
		return fmt.Errorf("%w: %d contact starts and %d generations queued (cursor closed: %t, at the end of the stream: %t)",
			ErrCheckpointCorrupt, starts, gens, ck.CursorClosed, ck.StreamEnded)
	}
	return nil
}

// restoreCheckpoint rebuilds the engine and the kernel's future event set
// from a snapshot.
func (e *engine) restoreCheckpoint(s *sim.Simulator, ck *checkpoint) error {
	// The workload is redrawn from the seed (same draws, same bodies) first,
	// so the stored events can be checked against it.
	e.drawWorkload()
	if err := e.checkEvents(ck); err != nil {
		return err
	}
	if err := s.SetNow(ck.Now); err != nil {
		return err
	}
	if err := e.env.RNG.Restore(ck.EnvRNG); err != nil {
		return err
	}
	if len(ck.Nodes) != len(e.nodes) {
		return fmt.Errorf("%w: %d node states for %d nodes", ErrCheckpointMismatch, len(ck.Nodes), len(e.nodes))
	}
	for i, n := range e.nodes {
		if err := n.RestoreState(ck.Nodes[i]); err != nil {
			return fmt.Errorf("engine: restore node %d: %w", i, err)
		}
	}
	e.collector.Restore(ck.Collector)
	e.metrics.AddCounterState(ck.Counters)
	if e.auditor != nil {
		if ck.Auditor == nil {
			return fmt.Errorf("%w: audited run resuming from an unaudited checkpoint", ErrCheckpointMismatch)
		}
		if err := e.auditor.Restore(*ck.Auditor); err != nil {
			return err
		}
	}

	if err := e.replayContacts(ck); err != nil {
		return err
	}

	// Events: re-scheduled in firing order, they keep their relative order.
	// Each contact end is one active contact, and the queued generation (if
	// any) is the workload position: every earlier one has fired.
	nextGen := len(e.gens)
	for _, ev := range ck.Events {
		if err := s.ScheduleEvent(sim.Event{At: ev.At, Pri: ev.Pri, H: e, Op: ev.Op, A: ev.A, B: ev.B, P: ev.P}); err != nil {
			return err
		}
		switch ev.Op {
		case opContactEnd:
			e.activate(trace.NodeID(ev.A), trace.NodeID(ev.B))
		case opWorkloadGen:
			nextGen = int(ev.P)
		}
	}
	for i := range e.gens[:nextGen] {
		e.gens[i].body = nil
	}
	return nil
}

// replayContacts reads, from a fresh cursor, the contacts the checkpointed
// run had read, re-deriving the running contact digest, and leaves the
// cursor where that run's was. The trace must yield exactly those contacts
// and, where that run's cursor met the end of the stream, end there too:
// otherwise the checkpoint belongs to another trace, whether the cursor is
// open or closed.
func (e *engine) replayContacts(ck *checkpoint) error {
	cur, err := e.cfg.Trace.Cursor()
	if err != nil {
		return err
	}
	e.cursor, e.cursorIdx, e.streamEnded = cur, ck.CursorIdx, ck.StreamEnded
	for i := 0; i < ck.CursorIdx; i++ {
		c, ok := cur.Next()
		if !ok {
			if err := cur.Err(); err != nil {
				return err
			}
			return fmt.Errorf("%w: trace has %d contacts, checkpoint consumed %d",
				ErrCheckpointMismatch, i, ck.CursorIdx)
		}
		e.noteContact(c)
		e.pending = c
	}
	var sum [sha256.Size]byte
	e.contacts.Sum(sum[:0])
	if sum != ck.Contacts {
		return fmt.Errorf("%w: the trace's first %d contacts differ from the checkpointed ones",
			ErrCheckpointMismatch, ck.CursorIdx)
	}
	if ck.StreamEnded {
		if _, ok := cur.Next(); ok {
			return fmt.Errorf("%w: the trace continues past contact %d, where the checkpointed one ended",
				ErrCheckpointMismatch, ck.CursorIdx)
		}
		if err := cur.Err(); err != nil {
			return err
		}
	}
	if ck.CursorClosed {
		e.closeCursor()
	}
	return nil
}

// nextControlAt returns the first periodic-checkpoint instant strictly after
// now, keeping the cadence anchored at the run start across resumes.
func (e *engine) nextControlAt(now sim.Time) sim.Time {
	every := e.cfg.Checkpoint.Every
	if now < e.startAt {
		return e.startAt + every
	}
	k := (now-e.startAt)/every + 1
	return e.startAt + sim.Time(k)*every
}

// maybeScheduleStop enqueues the graceful-stop control event once the
// watcher has observed a cancelled context. The control priority makes the
// stop a barrier: every same-instant protocol event completes first, so the
// flushed checkpoint is resumable.
func (e *engine) maybeScheduleStop(s *sim.Simulator) {
	if !e.cancelled.Load() || e.stopScheduled {
		return
	}
	e.stopScheduled = true
	if err := s.ScheduleEvent(sim.Event{
		At:  s.Now(),
		Pri: PriControl,
		H:   e,
		Op:  opControl,
		P:   ctrlStop,
	}); err != nil {
		panic(fmt.Sprintf("engine: stop event: %v", err))
	}
}

// handleControl runs one control event: flush a checkpoint and either stop
// the run or chain the next periodic emission.
func (e *engine) handleControl(s *sim.Simulator, ev sim.Event) {
	stop := ev.P == ctrlStop || e.cancelled.Load()
	if e.cfg.Checkpoint.Path != "" {
		if err := e.writeCheckpoint(s); err != nil {
			e.stopErr = fmt.Errorf("engine: checkpoint write failed: %w", err)
			s.Stop()
			return
		}
	}
	if stop {
		e.stopErr = fmt.Errorf("%w at %v", ErrInterrupted, s.Now())
		s.Stop()
		return
	}
	if e.cfg.Checkpoint.Every > 0 {
		if next := e.nextControlAt(s.Now()); next < e.endAt {
			if err := s.ScheduleEvent(sim.Event{
				At:  next,
				Pri: PriControl,
				H:   e,
				Op:  opControl,
				P:   ctrlPeriodic,
			}); err != nil {
				panic(fmt.Sprintf("engine: control event: %v", err))
			}
		}
	}
}
