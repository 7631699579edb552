// Package engine drives forwarding protocols over contact traces: it replays
// contacts through the discrete-event kernel, generates the paper's Poisson
// workload, runs pairwise protocol sessions (with intra-contact cascades, so
// a message can cross several hops while the radios are still in range),
// distributes proof-of-misbehavior broadcasts, and aggregates metrics.
//
// The experiment methodology follows Section V-B: a window of the trace is
// isolated; messages are generated with uniform random sources and
// destinations from a Poisson process, with no generation in the final hour
// of the window; buffers are infinite; the TTL (Δ1) is the protocol
// parameter. A warm-up period before the window feeds encounters to the
// delegation quality tables without traffic, standing in for the history
// the paper's nodes accumulated before each isolated period, and the run
// continues past the window end long enough for the pending G2G test phases
// to resolve (detection times are reported relative to the TTL expiry).
package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"give2get/internal/g2gcrypto"
	"give2get/internal/invariant"
	"give2get/internal/kclique"
	"give2get/internal/metrics"
	"give2get/internal/obs"
	"give2get/internal/protocol"
	"give2get/internal/sim"
	"give2get/internal/trace"
	"give2get/internal/wire"
)

// CryptoProvider selects the crypto substrate for a run.
type CryptoProvider string

// Available crypto providers.
const (
	// CryptoFast simulates signatures with keyed HMACs: the default for
	// large parameter sweeps.
	CryptoFast CryptoProvider = "fast"
	// CryptoReal uses Ed25519/X25519/AES-GCM end to end.
	CryptoReal CryptoProvider = "real"
)

// Config fully describes one simulation run.
type Config struct {
	// Trace is the full contact source; the experiment runs on a window of
	// it (all times below are absolute trace times). An in-memory
	// *trace.Trace works as before; a streaming source (e.g.
	// trace.OpenBinary) lets the engine replay traces that never fit in
	// RAM — the contact scheduler pulls from a cursor either way.
	Trace trace.Source
	// Protocol selects the forwarding protocol all nodes run.
	Protocol protocol.Kind
	// Params are the protocol constants (Δ1, Δ2, fan-out, ...).
	Params protocol.Params
	// Seed makes the whole run reproducible.
	Seed int64
	// Crypto selects the provider; empty means CryptoFast.
	Crypto CryptoProvider

	// WindowFrom/WindowTo delimit the experiment window.
	WindowFrom, WindowTo sim.Time
	// Warmup is how much trace before the window feeds quality tables.
	Warmup sim.Time
	// RunExtra extends the simulation beyond the window end so pending G2G
	// test phases can complete; the paper's Δ2 is the natural value.
	RunExtra sim.Time

	// MessageInterval is the mean Poisson inter-generation time (the paper
	// uses one message per 4 seconds).
	MessageInterval sim.Time
	// GenerationQuiet suppresses generation during the final part of the
	// window to avoid end effects (the paper uses one hour).
	GenerationQuiet sim.Time
	// TraceSink, when non-nil, receives the run's structured trace records
	// (leveled, timestamped in sim and wall time).
	TraceSink obs.TraceSink
	// Telemetry, when non-nil, is the registry the run records its counters
	// and timings into; sharing one registry across runs aggregates a whole
	// sweep. When nil the engine uses a private registry, so Result.Telemetry
	// is always populated, but only with counts and phase wall times: the
	// per-primitive crypto timers and the span profile need a registry.
	Telemetry *obs.Metrics
	// Audit, when non-nil, attaches the invariant auditor to the run: every
	// protocol event is checked against a shadow model online and the
	// reconciled report lands in Result.Audit. Violations never abort the
	// run — callers decide what a failed audit means (see
	// runner.Options.StrictAudit).
	Audit *invariant.Options
	// Context, when non-nil, allows cancellation: once it is done, the
	// engine stops before the next event and returns ErrInterrupted.
	Context context.Context

	// Deviants lists the nodes that deviate, each once, all with the same
	// deviation.
	Deviants []trace.NodeID
	// Deviation is the deviants' strategy.
	Deviation protocol.Deviation
	// OnlyOutsiders restricts the deviation to other communities
	// ("selfishness with outsiders").
	OnlyOutsiders bool
	// Communities overrides k-clique detection (mostly for tests); when nil
	// and OnlyOutsiders is set, communities are detected on the trace.
	Communities *kclique.Communities
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Trace == nil:
		return errors.New("engine: nil trace")
	case c.Trace.Nodes() < 2:
		return errors.New("engine: need at least two nodes")
	case c.Protocol.IsG2G() && c.Protocol.IsDelegation() && c.Trace.Nodes() < 3:
		return fmt.Errorf("engine: %v needs at least three nodes: Fig. 6's decoy D′ must differ from both session peers",
			c.Protocol)
	case c.WindowTo <= c.WindowFrom:
		return fmt.Errorf("engine: empty window [%v,%v)", c.WindowFrom, c.WindowTo)
	case c.MessageInterval <= 0:
		return errors.New("engine: message interval must be positive")
	case c.GenerationQuiet < 0 || c.GenerationQuiet >= c.WindowTo-c.WindowFrom:
		return errors.New("engine: generation quiet period must fit inside the window")
	case c.Warmup < 0 || c.RunExtra < 0:
		return errors.New("engine: negative warmup or run-extra")
	}
	if err := c.Params.Validate(); err != nil {
		return err
	}
	for i, d := range c.Deviants { // a repeat would skew the detection rate
		if int(d) < 0 || int(d) >= c.Trace.Nodes() {
			return fmt.Errorf("engine: deviant %d outside population", d)
		}
		if slices.Contains(c.Deviants[:i], d) {
			return fmt.Errorf("engine: deviant %d listed twice", d)
		}
	}
	return nil
}

// Result is everything a run produced.
type Result struct {
	Summary   metrics.Summary
	Detection metrics.DetectionSummary
	// Detections holds the first detection of each accused node, sorted by
	// accused id.
	Detections []metrics.Detection
	// Sources holds each node's own generated and delivered messages, and
	// Usage its resource accounting, both indexed by node id: the delivery,
	// energy and memory inputs of the paper's payoff function.
	Sources []metrics.SourceStats
	Usage   []protocol.Usage
	// Telemetry is the run report: sim-kernel, engine, protocol, and crypto
	// counters plus per-phase wall timings. Always non-nil. It is wall-clock
	// data of the process that ran, so the result's JSON form leaves it out.
	Telemetry *obs.Snapshot `json:"-"`
	// Audit is the invariant auditor's report; non-nil exactly when
	// Config.Audit was set. A report with violations does not make the run
	// fail here — see Report.Err for the strict form.
	Audit *invariant.Report
}

// DefaultWorkload fills in the paper's standard workload settings for a
// 3-hour window starting at `from`.
func DefaultWorkload(cfg *Config, from sim.Time) {
	cfg.WindowFrom = from
	cfg.WindowTo = from + 3*sim.Hour
	cfg.MessageInterval = 4 * sim.Second
	cfg.GenerationQuiet = sim.Hour
	cfg.Warmup = 12 * sim.Hour
	cfg.RunExtra = cfg.Params.Delta2
}

// ErrInterrupted is returned by a run whose Context was cancelled.
var ErrInterrupted = errors.New("engine: run interrupted")

// Run executes the configured simulation.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e, err := newEngine(cfg)
	if err != nil {
		return nil, err
	}
	return e.run()
}

type engine struct {
	cfg       Config
	sys       g2gcrypto.System
	env       *protocol.Env
	collector *metrics.Collector
	metrics   *obs.Metrics
	auditor   *invariant.Auditor
	spans     *obs.SpanRecorder
	nodes     []protocol.Node

	// active tracks currently overlapping contacts per pair.
	active map[trace.PairKey]int
	// neighbors caches each node's current radio neighborhood as sorted
	// slices: O(log n) membership, in-place insert/remove, and — unlike the
	// map+sort it replaced — allocation-free in-order iteration during
	// cascades.
	neighbors [][]trace.NodeID
	// cascadeBuf is the reusable BFS queue for cascadeFrom.
	cascadeBuf []trace.NodeID

	// cursor streams the trace's sorted contacts; the scheduler keeps at
	// most one un-fired start event (pending) plus the active ends in the
	// queue, so memory stays O(active contacts) even for on-disk sources.
	cursor trace.Cursor
	// cursorIdx counts every contact the cursor has yielded (scheduled or
	// skipped); it is the same index a materialized slice would have, so
	// the per-contact priority bands — and therefore same-instant event
	// order and the audit digest — are identical across source kinds.
	cursorIdx int
	// pending is the contact whose start event is currently enqueued; the
	// chained scheduler guarantees there is at most one.
	pending trace.Contact
	// cursorErr records a cursor read failure; the scheduler stops pulling
	// and run() surfaces it once the kernel drains.
	cursorErr error
	// gens is the pre-drawn Poisson workload (drawing everything up front
	// keeps the seeded RNG draw order independent of when generations fire).
	gens []workloadGen

	workloadRNG *sim.RNG
	startAt     sim.Time
	endAt       sim.Time

	// wallAtWindowFrom/To capture the wall clock as the run crosses the
	// window boundaries, for per-phase wall attribution.
	wallAtWindowFrom time.Time
	wallAtWindowTo   time.Time

	// cancelled is set once the run's context is done (context.AfterFunc);
	// the event loop loads it before every event and stops the kernel once
	// it is set.
	cancelled atomic.Bool
	// stopErr records the interruption that stopped the kernel early;
	// finishRun surfaces it.
	stopErr error
}

// workloadGen is one pre-drawn message generation.
type workloadGen struct {
	at       sim.Time
	src, dst trace.NodeID
	body     []byte
}

// Typed event opcodes dispatched by (*engine).HandleEvent.
const (
	opContactStart = iota + 1
	opContactEnd
	opWorkloadGen
	opMemoryTick
	opWindowFrom // phase probe: the window opens
	opWindowTo   // phase probe: the drain begins
)

// payloadBytes sizes every generated message body.
const payloadBytes = 64

// Same-instant priority bands, all owned by the engine. Contact events use
// 2*index (start) and 2*index+1 (end), so lazily streamed contacts fire in
// the exact order a full up-front schedule would give them; the workload
// band sits above every possible contact priority; the periodic band (memory
// ticks and phase probes, ordered among themselves by scheduling order) sits
// above both.
const (
	priWorkloadBase int64 = 1 << 41
	priPeriodic     int64 = 1 << 62
)

func newEngine(cfg Config) (*engine, error) {
	population := cfg.Trace.Nodes()

	var sys g2gcrypto.System
	var err error
	switch cfg.Crypto {
	case CryptoReal:
		sys, err = g2gcrypto.NewReal(population, cfg.Seed)
	case CryptoFast, "":
		sys, err = g2gcrypto.NewFast(population, cfg.Seed)
	default:
		return nil, fmt.Errorf("engine: unknown crypto provider %q", cfg.Crypto)
	}
	if err != nil {
		return nil, err
	}

	// Without an attached telemetry registry the run keeps a private one so
	// operation *counts* still accumulate (the auditor reconciles them), but
	// wall-clock instrumentation — per-primitive timers and the span
	// recorder — is disabled: nobody reads those durations, and the clock
	// reads cost real time on crypto-dense runs.
	m := cfg.Telemetry
	var spans *obs.SpanRecorder
	if m == nil {
		m = obs.NewMetrics()
		m.Crypto.DisableTiming()
	} else {
		spans = obs.NewSpanRecorder(&m.Spans)
	}
	sys = g2gcrypto.Instrument(sys, &m.Crypto)

	collector := metrics.NewCollector()
	observer := &runObserver{inner: collector, eng: &m.Engine, sink: cfg.TraceSink, spans: spans}
	var auditor *invariant.Auditor
	if cfg.Audit != nil {
		groundTruth, groundDeviation := cfg.Deviants, cfg.Deviation
		if cfg.Audit.AssumeHonest {
			// Audit against an empty deviant set: real detections become
			// honest-run violations (see invariant.Options.AssumeHonest).
			groundTruth, groundDeviation = nil, protocol.Honest
		}
		auditor = invariant.New(invariant.Config{
			Options:         *cfg.Audit,
			Sys:             sys,
			Params:          cfg.Params,
			Population:      population,
			Deviants:        groundTruth,
			Deviation:       groundDeviation,
			G2G:             cfg.Protocol.IsG2G(),
			SharedTelemetry: cfg.Telemetry != nil,
		})
		observer.audit = auditor
	}
	env, err := protocol.NewEnv(sys, cfg.Params, observer,
		sim.StreamFromSeed(cfg.Seed, "protocol"))
	if err != nil {
		return nil, err
	}
	env.SetMetrics(m)
	env.SetSpans(spans)

	e := &engine{
		cfg:         cfg,
		sys:         sys,
		env:         env,
		collector:   collector,
		metrics:     m,
		auditor:     auditor,
		spans:       spans,
		active:      make(map[trace.PairKey]int),
		neighbors:   make([][]trace.NodeID, population),
		workloadRNG: sim.StreamFromSeed(cfg.Seed, "workload"),
	}
	env.Broadcast = e.broadcast

	behavior, err := e.buildBehavior()
	if err != nil {
		return nil, err
	}
	deviant := make(map[trace.NodeID]struct{}, len(cfg.Deviants))
	for _, d := range cfg.Deviants {
		deviant[d] = struct{}{}
	}
	for i := 0; i < population; i++ {
		id, err := sys.Identity(trace.NodeID(i))
		if err != nil {
			return nil, err
		}
		b := protocol.Behavior{}
		if _, isDeviant := deviant[trace.NodeID(i)]; isDeviant {
			b = behavior
		}
		node, err := protocol.New(cfg.Protocol, env, id, b)
		if err != nil {
			return nil, err
		}
		e.nodes = append(e.nodes, node)
	}

	e.startAt = cfg.WindowFrom - cfg.Warmup
	if e.startAt < 0 {
		e.startAt = 0
	}
	e.endAt = cfg.WindowTo + cfg.RunExtra
	return e, nil
}

// buildBehavior assembles the deviants' behavior, running community
// detection when the deviation is restricted to outsiders.
func (e *engine) buildBehavior() (protocol.Behavior, error) {
	b := protocol.Behavior{
		Deviation:     e.cfg.Deviation,
		OnlyOutsiders: e.cfg.OnlyOutsiders,
	}
	if !e.cfg.OnlyOutsiders {
		return b, nil
	}
	comms := e.cfg.Communities
	if comms == nil {
		// Community detection needs random access; a streaming source pays
		// one materialization here. Large-trace runs should pre-detect and
		// pass Config.Communities instead.
		tr, err := trace.Materialize(e.cfg.Trace)
		if err != nil {
			return b, fmt.Errorf("engine: community detection: %w", err)
		}
		comms, err = kclique.DetectAuto(tr, kclique.DefaultOptions().K)
		if err != nil {
			return b, fmt.Errorf("engine: community detection: %w", err)
		}
	}
	b.SameCommunity = comms.SameCommunity
	return b, nil
}

func (e *engine) broadcast(pom wire.Signed) {
	e.metrics.Engine.NoteBroadcast()
	for _, n := range e.nodes {
		n.DeliverPoM(pom)
	}
}

func (e *engine) run() (*Result, error) {
	s := sim.New()
	s.SetStats(&e.metrics.Sim)
	defer e.closeCursor() // release the contact stream on every exit path

	e.spans.Enter(obs.SpanSchedule)
	err := e.scheduleAll(s)
	e.spans.Exit()
	if err != nil {
		return nil, err
	}

	// Phase probes capture the wall clock as the virtual clock crosses the
	// window boundaries. They touch no simulation state and are scheduled
	// last into the periodic band, so same-instant protocol events keep their
	// order and the run stays deterministic in virtual time. They double as
	// the phase markers of the trace sink.
	if e.cfg.WindowFrom >= e.startAt {
		if err := e.schedulePeriodic(s, e.cfg.WindowFrom, opWindowFrom); err != nil {
			return nil, err
		}
	}
	if err := e.schedulePeriodic(s, e.cfg.WindowTo, opWindowTo); err != nil {
		return nil, err
	}

	if e.startAt < e.cfg.WindowFrom {
		e.emitPhase(e.startAt, obs.PhaseWarmup)
	}
	return e.finishRun(s)
}

// schedulePeriodic enqueues one event of the periodic band: a memory tick or
// a phase probe.
func (e *engine) schedulePeriodic(s *sim.Simulator, at sim.Time, op uint32) error {
	return s.ScheduleEvent(sim.Event{At: at, Pri: priPeriodic, H: e, Op: op})
}

// finishRun drives the fully scheduled kernel to completion and assembles
// the result.
func (e *engine) finishRun(s *sim.Simulator) (*Result, error) {
	if ctx := e.cfg.Context; ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("%w before start: %v", ErrInterrupted, err)
		}
		defer context.AfterFunc(ctx, func() { e.cancelled.Store(true) })()
	}

	wallStart := time.Now()
	endedAt, err := s.RunUntil(e.endAt)
	wallEnd := time.Now()
	if err != nil {
		return nil, err
	}
	e.closeCursor()
	if e.cursorErr != nil {
		return nil, fmt.Errorf("engine: contact stream: %w", e.cursorErr)
	}
	if e.stopErr != nil {
		return nil, e.stopErr
	}

	// Attribute the wall time to warmup / window / drain. A window that opens
	// before time zero has no window probe and no warmup.
	wallAtWindowFrom := e.wallAtWindowFrom
	if wallAtWindowFrom.IsZero() {
		wallAtWindowFrom = wallStart
	}
	e.metrics.Engine.NotePhase(obs.PhaseWarmup, wallAtWindowFrom.Sub(wallStart))
	e.metrics.Engine.NotePhase(obs.PhaseWindow, e.wallAtWindowTo.Sub(wallAtWindowFrom))
	e.metrics.Engine.NotePhase(obs.PhaseDrain, wallEnd.Sub(e.wallAtWindowTo))

	usage := make([]protocol.Usage, len(e.nodes))
	for i, n := range e.nodes {
		usage[i] = n.UsageSnapshot()
	}
	result := &Result{
		Summary:    e.collector.Summarize(),
		Detection:  e.collector.SummarizeDetection(e.cfg.Deviants),
		Detections: e.collector.Detections(),
		Sources:    e.collector.Sources(len(e.nodes)),
		Usage:      usage,
		Telemetry:  e.metrics.Snapshot(),
	}
	if e.auditor != nil {
		fin := invariant.Finalization{
			SummaryGenerated:   result.Summary.Generated,
			SummaryDelivered:   result.Summary.Delivered,
			SummaryReplicas:    result.Summary.TotalReplicas,
			SummaryTestsRun:    result.Summary.TestsRun,
			SummaryTestsFailed: result.Summary.TestsFailed,
			Telemetry:          result.Telemetry,
			Blacklisted: func(holder, accused trace.NodeID) bool {
				return e.nodes[holder].Blacklisted(accused)
			},
			EndedAt: endedAt,
		}
		for _, u := range usage {
			fin.UsageSignatures += u.Signatures
			fin.UsageControlMessages += u.ControlMessages
			fin.UsageHeavyIterations += u.HeavyHMACIterations
		}
		result.Audit = e.auditor.Finalize(fin)
	}
	return result, nil
}

// scheduleAll seeds the run's event queue: the contact cursor, the workload
// cursor, and the memory sampler.
func (e *engine) scheduleAll(s *sim.Simulator) error {
	if err := e.scheduleContacts(s); err != nil {
		return err
	}
	if err := e.scheduleWorkload(s); err != nil {
		return err
	}
	return e.scheduleMemorySampling(s)
}

// emitPhase marks a phase transition with one "phase" milestone record for
// the trace sink.
func (e *engine) emitPhase(at sim.Time, p obs.Phase) {
	if sink := e.cfg.TraceSink; sink != nil && sink.Enabled(obs.LevelInfo) {
		rec := obs.NewRecord(time.Duration(at), obs.LevelInfo, "phase")
		rec.Wall = time.Now()
		rec.Reason = p.String()
		sink.Emit(rec)
	}
}

// scheduleMemorySampling integrates each node's buffer occupancy over the
// experiment window ("using one KByte for one second or for one year does
// not have the same cost").
func (e *engine) scheduleMemorySampling(s *sim.Simulator) error {
	return e.schedulePeriodic(s, e.cfg.WindowFrom, opMemoryTick)
}

// memoryTick samples every node's buffer occupancy and chains the next tick.
// Ticks double as cancellation poll points (HandleEvent polls before each
// event): during the drain the queue may hold nothing but ticks, and without
// them a cancelled context would only be honored at the natural end of the
// run.
func (e *engine) memoryTick(s *sim.Simulator) {
	interval := protocol.MemorySampleInterval()
	dt := sim.SecondsOf(interval)
	for _, n := range e.nodes {
		n.AddMemorySample(float64(n.MemoryBytes()) * dt)
	}
	if next := s.Now() + interval; next < e.endAt {
		if err := e.schedulePeriodic(s, next, opMemoryTick); err != nil {
			panic(fmt.Sprintf("engine: memory sampler: %v", err))
		}
	}
}

// clampContact clips a contact to the run interval [startAt, endAt].
func (e *engine) clampContact(c trace.Contact) (start, end sim.Time) {
	start, end = c.Start, c.End
	if start < e.startAt {
		start = e.startAt
	}
	if end > e.endAt {
		end = e.endAt
	}
	return start, end
}

// scheduleContacts seeds the streaming contact scheduler: a cursor is
// opened on the source and only the first eligible start event enters the
// queue; each start, as it fires, enqueues its own end and the next start
// behind the cursor. The stream is sorted by Start, so clamped starts are
// non-decreasing and a chained start is never in the past; the per-contact
// priority band reproduces the order a full up-front schedule would have
// produced, whether the source is in memory or on disk.
func (e *engine) scheduleContacts(s *sim.Simulator) error {
	cur, err := e.cfg.Trace.Cursor()
	if err != nil {
		return err
	}
	e.cursor = cur
	return e.scheduleNextContactStart(s)
}

// scheduleNextContactStart advances the contact cursor to the next interval
// overlapping the run and enqueues its start event. Contacts whose clamped
// interval is empty (zero-length after clipping) are skipped entirely rather
// than enqueued as no-op start/end pairs. Once the stream is exhausted — or
// sorted Starts prove nothing later can overlap — the cursor is closed.
func (e *engine) scheduleNextContactStart(s *sim.Simulator) error {
	if e.cursor == nil {
		return nil
	}
	for {
		c, ok := e.cursor.Next()
		if !ok {
			err := e.cursor.Err()
			e.closeCursor()
			return err
		}
		i := e.cursorIdx
		e.cursorIdx++
		if c.Start >= e.endAt {
			e.closeCursor()
			return nil // sorted by Start: nothing later can overlap
		}
		start, end := e.clampContact(c)
		if start >= end {
			continue
		}
		e.pending = c
		return s.ScheduleEvent(sim.Event{
			At:  start,
			Pri: 2 * int64(i),
			H:   e,
			Op:  opContactStart,
			P:   uint64(i),
		})
	}
}

// closeCursor releases the contact cursor once, folding a close failure
// into the run's cursor error.
func (e *engine) closeCursor() {
	if e.cursor == nil {
		return
	}
	if err := e.cursor.Close(); err != nil && e.cursorErr == nil {
		e.cursorErr = err
	}
	e.cursor = nil
}

// scheduleWorkload draws the Poisson message generation process up front
// from the dedicated workload RNG stream — the draw order is the seeded RNG
// contract — and streams the resulting generations one typed event at a
// time.
func (e *engine) scheduleWorkload(s *sim.Simulator) error {
	genEnd := e.cfg.WindowTo - e.cfg.GenerationQuiet
	population := e.cfg.Trace.Nodes()
	at := e.cfg.WindowFrom + e.workloadRNG.Exp(e.cfg.MessageInterval)
	for at < genEnd {
		src := trace.NodeID(e.workloadRNG.Intn(population))
		dst := trace.NodeID(e.workloadRNG.Intn(population))
		for dst == src {
			dst = trace.NodeID(e.workloadRNG.Intn(population))
		}
		body := make([]byte, payloadBytes)
		e.workloadRNG.Bytes(body)
		e.gens = append(e.gens, workloadGen{at: at, src: src, dst: dst, body: body})
		at += e.workloadRNG.Exp(e.cfg.MessageInterval)
	}
	return e.scheduleNextGen(s, 0)
}

func (e *engine) scheduleNextGen(s *sim.Simulator, idx int) error {
	if idx >= len(e.gens) {
		return nil
	}
	return s.ScheduleEvent(sim.Event{
		At:  e.gens[idx].at,
		Pri: priWorkloadBase + int64(idx),
		H:   e,
		Op:  opWorkloadGen,
		P:   uint64(idx),
	})
}

// HandleEvent dispatches the engine's typed events. Once the context is
// cancelled it handles none: it stops the kernel instead. Chained scheduling
// can only fail on a past timestamp, which the cursor invariants rule out, so
// a failure is a programmer error.
func (e *engine) HandleEvent(s *sim.Simulator, ev sim.Event) {
	if e.cancelled.Load() {
		e.stopErr = fmt.Errorf("%w at %v", ErrInterrupted, s.Now())
		s.Stop()
		return
	}
	switch ev.Op {
	case opContactStart:
		c := e.pending // copy before the cursor advances over it
		_, end := e.clampContact(c)
		e.spans.Enter(obs.SpanSchedule)
		if err := s.ScheduleEvent(sim.Event{
			At:  end,
			Pri: 2*int64(ev.P) + 1,
			H:   e,
			Op:  opContactEnd,
			A:   int32(c.A),
			B:   int32(c.B),
		}); err != nil {
			panic(fmt.Sprintf("engine: contact end: %v", err))
		}
		// A cursor read failure here is an I/O error, not a programmer
		// error: record it, stop pulling, and let run() surface it once
		// the queue drains.
		if err := e.scheduleNextContactStart(s); err != nil && e.cursorErr == nil {
			e.cursorErr = err
		}
		e.spans.Exit()
		e.contactStart(s.Now(), c.A, c.B)
	case opContactEnd:
		e.contactEnd(trace.NodeID(ev.A), trace.NodeID(ev.B))
	case opWorkloadGen:
		i := int(ev.P)
		g := e.gens[i]
		e.gens[i].body = nil // the node owns the payload from here on
		e.spans.Enter(obs.SpanSchedule)
		if err := e.scheduleNextGen(s, i+1); err != nil {
			panic(fmt.Sprintf("engine: workload cursor: %v", err))
		}
		e.spans.Exit()
		e.generate(s.Now(), g.src, g.dst, g.body)
	case opMemoryTick:
		e.memoryTick(s)
	case opWindowFrom:
		e.wallAtWindowFrom = time.Now()
		e.emitPhase(e.cfg.WindowFrom, obs.PhaseWindow)
	case opWindowTo:
		e.wallAtWindowTo = time.Now()
		e.emitPhase(e.cfg.WindowTo, obs.PhaseDrain)
	}
}

func (e *engine) generate(now sim.Time, src, dst trace.NodeID, body []byte) {
	if err := e.nodes[src].Generate(now, dst, body); err != nil {
		// Generation can only fail on programmer error (self-destined);
		// the workload generator never produces that.
		panic(fmt.Sprintf("engine: generate: %v", err))
	}
	// The new message can ride any contact already in progress.
	e.cascadeFrom(now, src)
}

func (e *engine) contactStart(now sim.Time, a, b trace.NodeID) {
	e.metrics.Engine.NoteContact()
	e.nodes[a].ObserveMeeting(now, b)
	e.nodes[b].ObserveMeeting(now, a)
	e.activate(a, b)
	if now < e.cfg.WindowFrom {
		return // warm-up: quality bookkeeping only
	}
	if e.sessionPair(now, a, b) {
		e.cascadeFrom(now, a)
		e.cascadeFrom(now, b)
	}
}

// activate counts one more overlapping contact of the pair; the first puts
// each node in the other's neighborhood.
func (e *engine) activate(a, b trace.NodeID) {
	key := trace.MakePairKey(a, b)
	e.active[key]++
	if e.active[key] == 1 {
		e.neighbors[a] = insertNeighbor(e.neighbors[a], b)
		e.neighbors[b] = insertNeighbor(e.neighbors[b], a)
	}
}

func (e *engine) contactEnd(a, b trace.NodeID) {
	key := trace.MakePairKey(a, b)
	if e.active[key] == 0 {
		return
	}
	e.active[key]--
	if e.active[key] == 0 {
		delete(e.active, key)
		e.neighbors[a] = removeNeighbor(e.neighbors[a], b)
		e.neighbors[b] = removeNeighbor(e.neighbors[b], a)
	}
}

// sessionPair runs both directions of an encounter session; it reports
// whether any custody moved.
func (e *engine) sessionPair(now sim.Time, a, b trace.NodeID) bool {
	na, nb := e.nodes[a], e.nodes[b]
	if na.Blacklisted(b) || nb.Blacklisted(a) {
		return false
	}
	e.spans.Enter(obs.SpanSession)
	moved := na.RunSession(now, nb)
	moved = nb.RunSession(now, na) || moved
	e.metrics.Engine.NoteSession(moved)
	e.spans.Exit()
	return moved
}

// cascadeFrom propagates new custody through the current connectivity
// component: a node that just received messages immediately runs sessions
// with its other active neighbors, as the radios are still in range.
func (e *engine) cascadeFrom(now sim.Time, origin trace.NodeID) {
	if now < e.cfg.WindowFrom {
		return
	}
	e.metrics.Engine.NoteCascade()
	// The BFS queue is reused across cascades; head indexes into it instead
	// of re-slicing so append can keep using the same backing array.
	queue := append(e.cascadeBuf[:0], origin)
	head := 0
	// The budget bounds pathological cascades. Termination comes long
	// before it is hit: a session moves a message only to a peer that has
	// never held it (G2G nodes check custody, which keeps every handled
	// message until Δ2; plain Epidemic and Delegation check their seen
	// sets), so each message enters each node at most once.
	budget := 4 * len(e.nodes) * len(e.nodes)
	for head < len(queue) && budget > 0 {
		n := queue[head]
		head++
		// Neighbor slices are already sorted and are not mutated during a
		// cascade (contact changes arrive as separate events), so this
		// iteration is stable and allocation-free.
		for _, peer := range e.neighbors[n] {
			budget--
			if e.sessionPair(now, n, peer) {
				queue = append(queue, peer)
			}
		}
	}
	e.cascadeBuf = queue
}

// insertNeighbor adds v to a sorted neighbor list, keeping it sorted.
func insertNeighbor(list []trace.NodeID, v trace.NodeID) []trace.NodeID {
	i, found := slices.BinarySearch(list, v)
	if found {
		return list // guarded by the active-contact refcount
	}
	list = append(list, 0)
	copy(list[i+1:], list[i:])
	list[i] = v
	return list
}

// removeNeighbor deletes v from a sorted neighbor list in place.
func removeNeighbor(list []trace.NodeID, v trace.NodeID) []trace.NodeID {
	i, found := slices.BinarySearch(list, v)
	if !found {
		return list
	}
	return append(list[:i], list[i+1:]...)
}
