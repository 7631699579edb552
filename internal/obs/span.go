package obs

import (
	"strconv"
	"sync/atomic"
	"time"
)

// Span names one instrumented region of a run. Spans are the fine-grained
// complement of Phase: a Phase slices the run's wall clock into three
// consecutive segments, while spans attribute wall time to the work performed
// inside them — contact scheduling, protocol steps, proof generation, crypto,
// audit folding — with proper parent/child self-time accounting.
type Span uint8

// The instrumented regions, engine-outward: trace loading and sweep dispatch
// (the harness), contact scheduling and sessions (the engine), the protocol
// steps of Figs. 1, 2 and 6 (relay/test/decide and the PoR/PoM proofs), the
// heavy-HMAC storage proof (crypto), and the invariant shadow model (audit).
const (
	// SpanTraceLoad covers parsing or generating a contact trace.
	SpanTraceLoad Span = iota
	// SpanSchedule covers the streaming contact/workload cursor: seeding the
	// first events and each chained re-schedule as events fire.
	SpanSchedule
	// SpanSession covers one pairwise encounter session (both directions);
	// its self time is the handshake and bookkeeping around the steps below.
	SpanSession
	// SpanRelay covers the relay phase of a session (Fig. 1 steps 1–5).
	SpanRelay
	// SpanTest covers the test phase of a session (Fig. 2).
	SpanTest
	// SpanDecide covers the delegation forwarding decision: the FQ_RQST/FQ
	// quality exchange that gates each relay.
	SpanDecide
	// SpanPoR covers proof-of-relay generation and verification.
	SpanPoR
	// SpanPoM covers proof-of-misbehavior assembly and validation.
	SpanPoM
	// SpanCrypto covers the heavy-HMAC storage proof (keystream compute and
	// verify) — the dominant crypto cost; cheap envelope sign/verify is
	// deliberately not spanned (it is counted in CryptoStats instead).
	SpanCrypto
	// SpanAudit covers feeding events to the invariant shadow model.
	SpanAudit
	// SpanDispatch covers the runner's per-spec scheduling overhead: the time
	// a worker spends on a spec outside the engine run itself.
	SpanDispatch
	numSpans
)

// String returns the span's canonical snake_case name, the key used in
// telemetry snapshots and breakdown tables.
func (s Span) String() string {
	switch s {
	case SpanTraceLoad:
		return "trace_load"
	case SpanSchedule:
		return "contact_schedule"
	case SpanSession:
		return "session"
	case SpanRelay:
		return "relay"
	case SpanTest:
		return "test"
	case SpanDecide:
		return "decide"
	case SpanPoR:
		return "por"
	case SpanPoM:
		return "pom"
	case SpanCrypto:
		return "crypto_hmac"
	case SpanAudit:
		return "audit"
	case SpanDispatch:
		return "sweep_dispatch"
	default:
		return "span(" + strconv.Itoa(int(s)) + ")"
	}
}

// SpanStats accumulates per-span wall/self/count totals. All fields are
// atomic, so recorders on concurrent sweep workers may share one SpanStats
// (it lives inside Metrics, which has the same contract).
type SpanStats struct {
	count  [numSpans]atomic.Int64
	wallNS [numSpans]atomic.Int64
	selfNS [numSpans]atomic.Int64
}

// Note adds one completed region: wall is its full duration, self the part
// not covered by child spans. Nil-safe; out-of-range spans are dropped.
func (s *SpanStats) Note(sp Span, wall, self time.Duration) {
	if s == nil || sp >= numSpans {
		return
	}
	s.count[sp].Add(1)
	s.wallNS[sp].Add(int64(wall))
	s.selfNS[sp].Add(int64(self))
}

// SpanSnapshot is one span's frozen accounting in the telemetry JSON.
type SpanSnapshot struct {
	Name   string `json:"name"`
	Count  int64  `json:"count"`
	WallNS int64  `json:"wall_ns"`
	SelfNS int64  `json:"self_ns"`
	// MeanNS is WallNS/Count, precomputed for table renderers.
	MeanNS int64 `json:"mean_ns"`
}

// snapshot freezes the non-empty spans in declaration order (the canonical
// engine-outward order), so JSON output is deterministic.
func (s *SpanStats) snapshot() []SpanSnapshot {
	var out []SpanSnapshot
	for sp := Span(0); sp < numSpans; sp++ {
		n := s.count[sp].Load()
		if n == 0 {
			continue
		}
		w := s.wallNS[sp].Load()
		out = append(out, SpanSnapshot{
			Name:   sp.String(),
			Count:  n,
			WallNS: w,
			SelfNS: s.selfNS[sp].Load(),
			MeanNS: w / n,
		})
	}
	return out
}

// spanStackDepth bounds the recorder's nesting; the deepest real chain
// (session → test → por → crypto) is 4, so 16 leaves ample headroom. Deeper
// nesting is timed into the enclosing frame rather than dropped on the floor.
const spanStackDepth = 16

// spanFrame is one open region on a recorder's stack.
type spanFrame struct {
	span  Span
	start time.Time
	child time.Duration
}

// SpanRecorder tracks a stack of open regions for ONE single-threaded
// execution (a run, or a runner worker) and folds completed regions into a
// shared SpanStats. The stack is what makes self-time possible: when a region
// closes, its duration is charged to the parent's child-time, so the parent's
// self time ends up as wall minus children.
//
// A nil *SpanRecorder is the disabled profiler: Enter and Exit on it are
// no-ops that cost one pointer test and zero allocations (pinned by
// TestSpanDisabledAllocs). A recorder must not be shared across goroutines;
// share the SpanStats instead — its accumulation is atomic.
type SpanRecorder struct {
	stats *SpanStats
	depth int
	stack [spanStackDepth]spanFrame
}

// NewSpanRecorder returns a recorder folding into stats; a nil stats returns
// the nil (disabled) recorder.
func NewSpanRecorder(stats *SpanStats) *SpanRecorder {
	if stats == nil {
		return nil
	}
	return &SpanRecorder{stats: stats}
}

// Enter opens a region. Every Enter must be paired with exactly one Exit on
// the same goroutine; call sites wrap the region body so the pairing is
// lexically checkable.
func (r *SpanRecorder) Enter(sp Span) {
	if r == nil {
		return
	}
	if r.depth < spanStackDepth {
		f := &r.stack[r.depth]
		f.span = sp
		f.start = time.Now()
		f.child = 0
	}
	r.depth++
}

// Exit closes the innermost open region and folds it into the stats.
func (r *SpanRecorder) Exit() {
	if r == nil || r.depth == 0 {
		return
	}
	r.depth--
	if r.depth >= spanStackDepth {
		return // overflowed frame: timed into the enclosing region
	}
	f := &r.stack[r.depth]
	d := time.Since(f.start)
	if r.depth > 0 {
		r.stack[r.depth-1].child += d
	}
	r.stats.Note(f.span, d, d-f.child)
}
