package obs

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// TestSpanDisabledAllocs pins the disabled-profiler contract: Enter/Exit on a
// nil recorder (no registry installed) allocate nothing.
func TestSpanDisabledAllocs(t *testing.T) {
	var r *SpanRecorder
	if got := testing.AllocsPerRun(1000, func() {
		r.Enter(SpanSession)
		r.Exit()
	}); got != 0 {
		t.Fatalf("disabled span enter/exit allocates: %v allocs/op", got)
	}
	if r := NewSpanRecorder(nil); r != nil {
		t.Fatal("NewSpanRecorder(nil) must return the disabled recorder")
	}
}

// TestSpanEnabledAllocs pins that the enabled path is allocation-free too:
// the stack is a fixed array and Note is all atomics.
func TestSpanEnabledAllocs(t *testing.T) {
	var stats SpanStats
	r := NewSpanRecorder(&stats)
	if got := testing.AllocsPerRun(1000, func() {
		r.Enter(SpanSession)
		r.Enter(SpanTest)
		r.Exit()
		r.Exit()
	}); got != 0 {
		t.Fatalf("enabled span enter/exit allocates: %v allocs/op", got)
	}
}

// TestSpanSelfTime checks the parent/child accounting: a child's wall time is
// subtracted from the parent's self time, and totals add up.
func TestSpanSelfTime(t *testing.T) {
	var stats SpanStats
	r := NewSpanRecorder(&stats)

	r.Enter(SpanSession)
	r.Enter(SpanTest)
	time.Sleep(10 * time.Millisecond)
	r.Exit()
	r.Exit()

	if got := stats.Count(SpanSession); got != 1 {
		t.Fatalf("session count = %d, want 1", got)
	}
	if got := stats.Count(SpanTest); got != 1 {
		t.Fatalf("test count = %d, want 1", got)
	}
	child := stats.Wall(SpanTest)
	if child < 10*time.Millisecond {
		t.Fatalf("child wall %v too short", child)
	}
	parent := stats.Wall(SpanSession)
	if parent < child {
		t.Fatalf("parent wall %v < child wall %v", parent, child)
	}
	// Parent self = parent wall - child wall, exactly.
	if got, want := stats.Self(SpanSession), parent-child; got != want {
		t.Fatalf("parent self = %v, want %v", got, want)
	}
	// A leaf's self time equals its wall time.
	if stats.Self(SpanTest) != child {
		t.Fatalf("leaf self %v != wall %v", stats.Self(SpanTest), child)
	}
}

// TestSpanStackOverflow checks that nesting past the fixed stack depth does
// not corrupt accounting: overflowed frames are folded into the enclosing
// region instead of recorded.
func TestSpanStackOverflow(t *testing.T) {
	var stats SpanStats
	r := NewSpanRecorder(&stats)
	const deep = spanStackDepth + 8
	for i := 0; i < deep; i++ {
		r.Enter(SpanRelay)
	}
	for i := 0; i < deep; i++ {
		r.Exit()
	}
	if got := stats.Count(SpanRelay); got != spanStackDepth {
		t.Fatalf("recorded %d frames, want %d (stack depth)", got, spanStackDepth)
	}
	// Extra exits on an empty stack are harmless.
	r.Exit()
	if got := stats.Count(SpanRelay); got != spanStackDepth {
		t.Fatalf("spurious exit recorded a frame: %d", got)
	}
}

// TestSpanStatsShared exercises the sweep-worker sharing contract under the
// race detector (`make race` runs this package with -race): many recorders,
// one SpanStats.
func TestSpanStatsShared(t *testing.T) {
	var stats SpanStats
	const workers, rounds = 8, 200
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			r := NewSpanRecorder(&stats)
			for i := 0; i < rounds; i++ {
				r.Enter(SpanDispatch)
				r.Enter(SpanCrypto)
				r.Exit()
				r.Exit()
			}
		}()
	}
	wg.Wait()
	if got := stats.Count(SpanDispatch); got != workers*rounds {
		t.Fatalf("dispatch count = %d, want %d", got, workers*rounds)
	}
	if got := stats.Count(SpanCrypto); got != workers*rounds {
		t.Fatalf("crypto count = %d, want %d", got, workers*rounds)
	}
}

// TestSpanSnapshot checks the snapshot's shape: only non-empty spans, in
// declaration order, with a derived mean, and surviving a JSON round trip
// inside the registry snapshot.
func TestSpanSnapshot(t *testing.T) {
	m := NewMetrics()
	m.Spans.Note(SpanCrypto, 40*time.Millisecond, 40*time.Millisecond)
	m.Spans.Note(SpanCrypto, 20*time.Millisecond, 20*time.Millisecond)
	m.Spans.Note(SpanSession, 100*time.Millisecond, 30*time.Millisecond)

	snap := m.Snapshot()
	if len(snap.Spans) != 2 {
		t.Fatalf("got %d span entries, want 2: %+v", len(snap.Spans), snap.Spans)
	}
	// Declaration order: session before crypto_hmac.
	if snap.Spans[0].Name != "session" || snap.Spans[1].Name != "crypto_hmac" {
		t.Fatalf("span order wrong: %+v", snap.Spans)
	}
	if got := snap.Spans[1].MeanNS; got != int64(30*time.Millisecond) {
		t.Fatalf("crypto mean = %d, want %d", got, int64(30*time.Millisecond))
	}
	if got := snap.Spans[0].SelfNS; got != int64(30*time.Millisecond) {
		t.Fatalf("session self = %d, want %d", got, int64(30*time.Millisecond))
	}

	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Spans) != 2 || back.Spans[0].Name != "session" {
		t.Fatalf("round trip lost spans: %+v", back.Spans)
	}
}

// TestSpanNames pins every span's snake_case name: these are schema keys in
// telemetry snapshots and benchjson tables, so renames are breaking changes.
func TestSpanNames(t *testing.T) {
	want := map[Span]string{
		SpanTraceLoad: "trace_load",
		SpanSchedule:  "contact_schedule",
		SpanSession:   "session",
		SpanRelay:     "relay",
		SpanTest:      "test",
		SpanDecide:    "decide",
		SpanPoR:       "por",
		SpanPoM:       "pom",
		SpanCrypto:    "crypto_hmac",
		SpanAudit:     "audit",
		SpanDispatch:  "sweep_dispatch",
	}
	if len(want) != int(numSpans) {
		t.Fatalf("name table covers %d spans, enum has %d", len(want), numSpans)
	}
	for sp, name := range want {
		if sp.String() != name {
			t.Errorf("%d.String() = %q, want %q", sp, sp.String(), name)
		}
	}
}

// BenchmarkSpanEnterExit measures the enabled recorder's per-region cost;
// BenchmarkSpanEnterExitDisabled the nil recorder's.
func BenchmarkSpanEnterExit(b *testing.B) {
	var stats SpanStats
	r := NewSpanRecorder(&stats)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Enter(SpanSession)
		r.Exit()
	}
}

func BenchmarkSpanEnterExitDisabled(b *testing.B) {
	var r *SpanRecorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Enter(SpanSession)
		r.Exit()
	}
}

// Count returns the number of completed regions of one span.
func (s *SpanStats) Count(sp Span) int64 {
	if s == nil || sp >= numSpans {
		return 0
	}
	return s.count[sp].Load()
}

// Wall returns the accumulated wall time of one span.
func (s *SpanStats) Wall(sp Span) time.Duration {
	if s == nil || sp >= numSpans {
		return 0
	}
	return time.Duration(s.wallNS[sp].Load())
}

// Self returns the accumulated self time (wall minus child spans) of one span.
func (s *SpanStats) Self(sp Span) time.Duration {
	if s == nil || sp >= numSpans {
		return 0
	}
	return time.Duration(s.selfNS[sp].Load())
}
