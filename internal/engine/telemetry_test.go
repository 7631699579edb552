package engine

import (
	"encoding/json"
	"io"
	"reflect"
	"sync"
	"testing"
	"time"

	"give2get/internal/g2gcrypto"
	"give2get/internal/obs"
	"give2get/internal/protocol"
	"give2get/internal/sim"
	"give2get/internal/trace"
	"give2get/internal/wire"
)

// TestObserverTraceRecords pins the record the run observer emits for each
// protocol event: virtual time, level, event name and the message, node,
// reason and verdict fields. Wall time is only required to be stamped, then
// stripped before the comparison.
func TestObserverTraceRecords(t *testing.T) {
	sink := &collectSink{min: obs.LevelDebug}
	o := &runObserver{inner: protocol.NopObserver{}, eng: nil, sink: sink}

	h := g2gcrypto.Hash([]byte("legacy"))
	short := shortHash(h)
	o.Generated(h, 1, 1, 2, 125*sim.Second)
	o.Replicated(h, 1, 3, 130*sim.Second)
	o.Delivered(h, 4*sim.Minute)
	o.Tested(3, true, 5*sim.Minute)
	o.Tested(3, false, 6*sim.Minute)
	o.Detected(3, wire.ReasonDropped, h, 7*sim.Minute, 2*sim.Minute)

	rec := func(at sim.Time, level obs.Level, event string, set func(*obs.Record)) obs.Record {
		r := obs.NewRecord(time.Duration(at), level, event)
		set(&r)
		return r
	}
	want := []obs.Record{
		rec(125*sim.Second, obs.LevelInfo, "generate", func(r *obs.Record) { r.Msg, r.From, r.To = short, 1, 2 }),
		rec(130*sim.Second, obs.LevelInfo, "replicate", func(r *obs.Record) { r.Msg, r.From, r.To = short, 1, 3 }),
		rec(4*sim.Minute, obs.LevelInfo, "deliver", func(r *obs.Record) { r.Msg = short }),
		rec(5*sim.Minute, obs.LevelDebug, "test", func(r *obs.Record) { r.Node, r.Passed, r.HasPassed = 3, true, true }),
		rec(6*sim.Minute, obs.LevelDebug, "test", func(r *obs.Record) { r.Node, r.HasPassed = 3, true }),
		rec(7*sim.Minute, obs.LevelWarn, "detect", func(r *obs.Record) { r.Msg, r.Node, r.Reason = short, 3, "dropped" }),
	}
	if len(sink.recs) != len(want) {
		t.Fatalf("observer emitted %d records, want %d: %v", len(sink.recs), len(want), sink.recs)
	}
	for i, got := range sink.recs {
		if got.Wall.IsZero() {
			t.Errorf("record %d (%s) carries no wall time", i, got.Event)
		}
		got.Wall = time.Time{}
		if got != want[i] {
			t.Errorf("record %d:\n got %+v\nwant %+v", i, got, want[i])
		}
	}
}

// TestRunTelemetrySnapshot checks the end-to-end run report: every subsystem
// contributes counters, phases carry wall time, and the snapshot serializes.
func TestRunTelemetrySnapshot(t *testing.T) {
	cfg := baseConfig(t, protocol.G2GEpidemic)
	cfg.Deviants = []trace.NodeID{2, 7}
	cfg.Deviation = protocol.Dropper
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tel := res.Telemetry
	if tel == nil {
		t.Fatal("Result.Telemetry is nil")
	}
	if tel.Sim.EventsFired == 0 || tel.Sim.EventsScheduled < tel.Sim.EventsFired {
		t.Fatalf("sim counters implausible: %+v", tel.Sim)
	}
	if tel.Sim.QueueHighWater == 0 {
		t.Fatal("queue high-water mark never observed")
	}
	if tel.Engine.ContactsReplayed == 0 || tel.Engine.SessionsRun == 0 {
		t.Fatalf("engine counters implausible: %+v", tel.Engine)
	}
	if int(tel.Engine.MessagesGenerated) != res.Summary.Generated {
		t.Fatalf("generated: telemetry %d vs summary %d", tel.Engine.MessagesGenerated, res.Summary.Generated)
	}
	if int(tel.Engine.MessagesDelivered) != res.Summary.Delivered {
		t.Fatalf("delivered: telemetry %d vs summary %d", tel.Engine.MessagesDelivered, res.Summary.Delivered)
	}
	if int(tel.Engine.MessagesRelayed) != res.Summary.TotalReplicas {
		t.Fatalf("relayed: telemetry %d vs summary %d", tel.Engine.MessagesRelayed, res.Summary.TotalReplicas)
	}
	if tel.Engine.PoMBroadcasts == 0 {
		t.Fatal("droppers ran but no PoM broadcasts counted")
	}
	if int(tel.Protocol.TestsStarted) != res.Summary.TestsRun {
		t.Fatalf("tests: telemetry %d vs summary %d", tel.Protocol.TestsStarted, res.Summary.TestsRun)
	}
	if len(tel.Protocol.Wire) == 0 || tel.Protocol.WireBytesTotal == 0 {
		t.Fatalf("wire accounting empty: %+v", tel.Protocol)
	}
	if _, ok := tel.Protocol.Wire["POR"]; !ok {
		t.Fatalf("no POR wire stats: %v", tel.Protocol.Wire)
	}
	if tel.Crypto.Provider != "fast" {
		t.Fatalf("crypto provider = %q, want fast", tel.Crypto.Provider)
	}
	if tel.Crypto.Sign.Count == 0 || tel.Crypto.Verify.Count == 0 {
		t.Fatalf("crypto op counts implausible: %+v", tel.Crypto)
	}
	if tel.Crypto.HeavyHMACIterations == 0 {
		t.Fatal("no heavy-HMAC iterations recorded")
	}
	if tel.Engine.WallTotalNS <= 0 {
		t.Fatalf("no wall time attributed to phases: %+v", tel.Engine.Phases)
	}
	if tel.EventsPerSec() <= 0 {
		t.Fatal("events/sec not derivable")
	}

	b, err := json.Marshal(tel)
	if err != nil {
		t.Fatal(err)
	}
	var back obs.Snapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("snapshot does not round-trip: %v", err)
	}
	if back.Schema != obs.SchemaVersion {
		t.Fatalf("schema = %q", back.Schema)
	}
}

// TestTracingDoesNotPerturbRun: attaching a sink and telemetry must leave
// the simulation bit-identical in virtual time.
func TestTracingDoesNotPerturbRun(t *testing.T) {
	plain := baseConfig(t, protocol.G2GEpidemic)
	ref, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}

	traced := baseConfig(t, protocol.G2GEpidemic)
	info := &collectSink{min: obs.LevelInfo}
	traced.TraceSink = info
	traced.Telemetry = obs.NewMetrics()
	got, err := Run(traced)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Summary != got.Summary {
		t.Fatalf("tracing changed the run:\n%+v\n%+v", ref.Summary, got.Summary)
	}
	if !reflect.DeepEqual(ref.Detections, got.Detections) || !reflect.DeepEqual(ref.Usage, got.Usage) {
		t.Fatal("tracing changed the run's detections or usage")
	}
	if len(info.recs) == 0 {
		t.Fatal("info sink captured nothing")
	}
	for _, r := range info.recs {
		if r.Wall.IsZero() {
			t.Fatalf("trace record missing wall time: %+v", r)
		}
		if r.Level < obs.LevelInfo {
			t.Fatalf("info sink was handed a record below its level: %+v", r)
		}
	}
}

// collectSink keeps every record it is handed. Its Emit does not filter, so
// a record below min that reaches it was sent despite Enabled saying no.
type collectSink struct {
	mu   sync.Mutex
	min  obs.Level
	recs []obs.Record
}

func (c *collectSink) Enabled(l obs.Level) bool { return l >= c.min }

func (c *collectSink) Emit(r obs.Record) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.recs = append(c.recs, r)
}

// TestSharedTelemetryAggregates: one registry across two runs sums counters.
func TestSharedTelemetryAggregates(t *testing.T) {
	m := obs.NewMetrics()
	cfg := baseConfig(t, protocol.Epidemic)
	cfg.Telemetry = m
	first, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	afterFirst := m.Engine.MessagesGenerated.Load()
	if int(afterFirst) != first.Summary.Generated {
		t.Fatalf("first run: %d vs %d", afterFirst, first.Summary.Generated)
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if got := m.Engine.MessagesGenerated.Load(); got != 2*afterFirst {
		t.Fatalf("aggregated generated = %d, want %d", got, 2*afterFirst)
	}
	if m.Snapshot().Engine.Phases.Window.WallNS <= 0 {
		t.Fatal("no window wall time aggregated")
	}
}

// TestObserverDisabledPathAllocationFree is the satellite gate: with no sink
// attached, the observer path must not allocate per event.
func TestObserverDisabledPathAllocationFree(t *testing.T) {
	var eng obs.EngineStats
	o := &runObserver{inner: protocol.NopObserver{}, eng: &eng, sink: nil}
	h := g2gcrypto.Hash([]byte("alloc"))
	allocs := testing.AllocsPerRun(1000, func() {
		o.Generated(h, 1, 0, 1, sim.Second)
		o.Replicated(h, 0, 1, sim.Second)
		o.Delivered(h, sim.Second)
		o.Tested(1, true, sim.Second)
	})
	if allocs != 0 {
		t.Fatalf("disabled observer path allocates %v per event, want 0", allocs)
	}
}

// BenchmarkTelemetryOverhead compares a full run with tracing disabled (the
// default: counters only, nil sink) against one with a debug-level JSON sink
// attached, so the cost of the always-on path is visible in isolation.
func BenchmarkTelemetryOverhead(b *testing.B) {
	base := func(b *testing.B) Config {
		cfg := baseConfig(b, protocol.G2GEpidemic)
		cfg.Deviants = []trace.NodeID{2, 7}
		cfg.Deviation = protocol.Dropper
		return cfg
	}
	b.Run("disabled", func(b *testing.B) {
		cfg := base(b)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Run(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("traced", func(b *testing.B) {
		cfg := base(b)
		cfg.TraceSink = obs.NewJSONSink(io.Discard, obs.LevelDebug)
		cfg.Telemetry = obs.NewMetrics()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Run(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}
