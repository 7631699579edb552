package engine

import (
	"encoding/hex"
	"time"

	"give2get/internal/g2gcrypto"
	"give2get/internal/invariant"
	"give2get/internal/message"
	"give2get/internal/obs"
	"give2get/internal/protocol"
	"give2get/internal/sim"
	"give2get/internal/trace"
	"give2get/internal/wire"
)

// runObserver wraps the metrics collector: it counts the message lifecycle
// into the engine telemetry and, when a trace sink is attached, emits one
// typed record per protocol event. With a nil sink the tracing side is a
// single nil check and allocates nothing (see BenchmarkTelemetryOverhead).
// When an auditor is attached every event is additionally fed to the
// invariant shadow model, including the PoR/PoM extension hooks — those two
// never reach the sink, so audited runs keep the trace byte-identical to
// unaudited ones.
type runObserver struct {
	inner protocol.Observer
	eng   *obs.EngineStats
	sink  obs.TraceSink
	audit *invariant.Auditor
	// spans attributes the shadow-model folding to the "audit" span; it is
	// the run's recorder, shared with the engine and the protocol Env.
	spans *obs.SpanRecorder
}

var (
	_ protocol.Observer      = (*runObserver)(nil)
	_ protocol.RelayObserver = (*runObserver)(nil)
	_ protocol.PoMObserver   = (*runObserver)(nil)
)

func shortHash(h g2gcrypto.Digest) string { return hex.EncodeToString(h[:4]) }

// Generated implements protocol.Observer.
func (o *runObserver) Generated(h g2gcrypto.Digest, id message.ID, src, dst trace.NodeID, at sim.Time) {
	o.inner.Generated(h, id, src, dst, at)
	o.eng.NoteGenerated()
	if o.audit != nil {
		o.spans.Enter(obs.SpanAudit)
		o.audit.Generated(h, id, src, dst, at)
		o.spans.Exit()
	}
	if o.sink != nil && o.sink.Enabled(obs.LevelInfo) {
		rec := obs.NewRecord(time.Duration(at), obs.LevelInfo, "generate")
		rec.Wall = time.Now()
		rec.Msg = shortHash(h)
		rec.From, rec.To = int(src), int(dst)
		o.sink.Emit(rec)
	}
}

// Replicated implements protocol.Observer.
func (o *runObserver) Replicated(h g2gcrypto.Digest, from, to trace.NodeID, at sim.Time) {
	o.inner.Replicated(h, from, to, at)
	o.eng.NoteRelayed()
	if o.audit != nil {
		o.spans.Enter(obs.SpanAudit)
		o.audit.Replicated(h, from, to, at)
		o.spans.Exit()
	}
	if o.sink != nil && o.sink.Enabled(obs.LevelInfo) {
		rec := obs.NewRecord(time.Duration(at), obs.LevelInfo, "replicate")
		rec.Wall = time.Now()
		rec.Msg = shortHash(h)
		rec.From, rec.To = int(from), int(to)
		o.sink.Emit(rec)
	}
}

// Delivered implements protocol.Observer.
func (o *runObserver) Delivered(h g2gcrypto.Digest, at sim.Time) {
	o.inner.Delivered(h, at)
	o.eng.NoteDelivered()
	if o.audit != nil {
		o.spans.Enter(obs.SpanAudit)
		o.audit.Delivered(h, at)
		o.spans.Exit()
	}
	if o.sink != nil && o.sink.Enabled(obs.LevelInfo) {
		rec := obs.NewRecord(time.Duration(at), obs.LevelInfo, "deliver")
		rec.Wall = time.Now()
		rec.Msg = shortHash(h)
		o.sink.Emit(rec)
	}
}

// Detected implements protocol.Observer.
func (o *runObserver) Detected(accused trace.NodeID, reason wire.MisbehaviorReason, h g2gcrypto.Digest, at, ttlExpiry sim.Time) {
	o.inner.Detected(accused, reason, h, at, ttlExpiry)
	if o.audit != nil {
		o.spans.Enter(obs.SpanAudit)
		o.audit.Detected(accused, reason, h, at, ttlExpiry)
		o.spans.Exit()
	}
	if o.sink != nil && o.sink.Enabled(obs.LevelWarn) {
		rec := obs.NewRecord(time.Duration(at), obs.LevelWarn, "detect")
		rec.Wall = time.Now()
		rec.Msg = shortHash(h)
		rec.Node = int(accused)
		rec.Reason = reason.String()
		o.sink.Emit(rec)
	}
}

// Tested implements protocol.Observer.
func (o *runObserver) Tested(accused trace.NodeID, passed bool, at sim.Time) {
	o.inner.Tested(accused, passed, at)
	if o.audit != nil {
		o.spans.Enter(obs.SpanAudit)
		o.audit.Tested(accused, passed, at)
		o.spans.Exit()
	}
	if o.sink != nil && o.sink.Enabled(obs.LevelDebug) {
		rec := obs.NewRecord(time.Duration(at), obs.LevelDebug, "test")
		rec.Wall = time.Now()
		rec.Node = int(accused)
		rec.Passed, rec.HasPassed = passed, true
		o.sink.Emit(rec)
	}
}

// RelayProven implements protocol.RelayObserver: validated proofs of relay
// flow to the auditor only (metrics and sinks do not consume them).
func (o *runObserver) RelayProven(por wire.Signed, at sim.Time) {
	if o.audit != nil {
		o.spans.Enter(obs.SpanAudit)
		o.audit.RelayProven(por, at)
		o.spans.Exit()
	}
}

// MisbehaviorReported implements protocol.PoMObserver: broadcast proofs of
// misbehavior flow to the auditor only.
func (o *runObserver) MisbehaviorReported(pom wire.Signed, at sim.Time) {
	if o.audit != nil {
		o.spans.Enter(obs.SpanAudit)
		o.audit.MisbehaviorReported(pom, at)
		o.spans.Exit()
	}
}
