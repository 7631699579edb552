package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAndMaxGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}

	var g MaxGauge
	for _, v := range []int64{3, 7, 2, 7, 1} {
		g.Observe(v)
	}
	if got := g.Load(); got != 7 {
		t.Fatalf("max gauge = %d, want 7", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 2, 3, 4, 1024, -5} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 7 {
		t.Fatalf("count = %d, want 7", s.Count)
	}
	if s.Max != 1024 {
		t.Fatalf("max = %d, want 1024", s.Max)
	}
	// sum: 0+1+2+3+4+1024+0 (negative clamps to 0) = 1034
	if s.Sum != 1034 {
		t.Fatalf("sum = %d, want 1034", s.Sum)
	}
	// buckets by bits.Len64: {0,-5}→i0, {1}→i1, {2,3}→i2, {4}→i3, {1024}→i11
	want := []HistogramBucket{{Lt: 1, N: 2}, {Lt: 2, N: 1}, {Lt: 4, N: 2}, {Lt: 8, N: 1}, {Lt: 2048, N: 1}}
	if len(s.Buckets) != len(want) {
		t.Fatalf("buckets = %+v, want %+v", s.Buckets, want)
	}
	for i, b := range want {
		if s.Buckets[i] != b {
			t.Fatalf("bucket %d = %+v, want %+v", i, s.Buckets[i], b)
		}
	}
}

func TestHistogramOverflowClamp(t *testing.T) {
	var h Histogram
	h.Observe(1 << 62)
	s := h.Snapshot()
	if len(s.Buckets) != 1 {
		t.Fatalf("buckets = %+v, want exactly one", s.Buckets)
	}
	if s.Buckets[0].Lt != 1<<(histBuckets-1) {
		t.Fatalf("overflow bucket Lt = %d, want %d", s.Buckets[0].Lt, int64(1)<<(histBuckets-1))
	}
}

func TestTimerStat(t *testing.T) {
	var ts TimerStat
	ts.Note(2 * time.Millisecond)
	ts.Note(4 * time.Millisecond)
	if ts.Count() != 2 {
		t.Fatalf("count = %d, want 2", ts.Count())
	}
	if ts.Total() != 6*time.Millisecond {
		t.Fatalf("total = %v, want 6ms", ts.Total())
	}
	s := ts.Snapshot()
	if s.MeanNS != float64(3*time.Millisecond) {
		t.Fatalf("mean = %v, want 3ms in ns", s.MeanNS)
	}
}

func TestRecordJSON(t *testing.T) {
	rec := NewRecord(125*time.Second, LevelInfo, "generate")
	rec.Msg = "deadbeef"
	rec.From = 1
	rec.To = 2
	got := string(rec.appendJSON(nil))
	want := `{"t":"2m5s","level":"info","event":"generate","msg":"deadbeef","from":1,"to":2}`
	if got != want {
		t.Fatalf("record JSON:\n got %s\nwant %s", got, want)
	}

	// Node id 0 must render (the -1 sentinel, not 0, means absent).
	rec2 := NewRecord(0, LevelWarn, "detect")
	rec2.Node = 0
	rec2.Reason = "drop"
	got2 := string(rec2.appendJSON(nil))
	want2 := `{"t":"0s","level":"warn","event":"detect","node":0,"reason":"drop"}`
	if got2 != want2 {
		t.Fatalf("record JSON:\n got %s\nwant %s", got2, want2)
	}

	// Passed renders only with HasPassed, including false.
	rec3 := NewRecord(time.Second, LevelDebug, "test")
	rec3.HasPassed = true
	rec3.Passed = false
	got3 := string(rec3.appendJSON(nil))
	want3 := `{"t":"1s","level":"debug","event":"test","passed":false}`
	if got3 != want3 {
		t.Fatalf("record JSON:\n got %s\nwant %s", got3, want3)
	}

	// MarshalJSON agrees and produces valid JSON.
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != want {
		t.Fatalf("MarshalJSON = %s, want %s", b, want)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatalf("record JSON not parseable: %v", err)
	}
}

func TestRecordJSONWall(t *testing.T) {
	rec := NewRecord(time.Second, LevelInfo, "progress")
	rec.Wall = time.Date(2024, 3, 1, 12, 0, 0, 0, time.UTC)
	got := string(rec.appendJSON(nil))
	want := `{"t":"1s","wall":"2024-03-01T12:00:00Z","level":"info","event":"progress"}`
	if got != want {
		t.Fatalf("record JSON:\n got %s\nwant %s", got, want)
	}
}

func TestJSONSinkLevelsAndOutput(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONSink(&buf, LevelInfo)
	if s.Enabled(LevelDebug) {
		t.Fatal("debug should be disabled at info min level")
	}
	dbg := NewRecord(0, LevelDebug, "test")
	s.Emit(dbg) // must be dropped even if called directly
	info := NewRecord(time.Minute, LevelInfo, "deliver")
	info.Msg = "cafebabe"
	s.Emit(info)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("got %d lines, want 1: %q", len(lines), buf.String())
	}
	if want := `{"t":"1m0s","level":"info","event":"deliver","msg":"cafebabe"}`; lines[0] != want {
		t.Fatalf("line = %s, want %s", lines[0], want)
	}
}

// failAfter accepts n writes, then fails every later one.
type failAfter struct {
	n, writes int
}

func (f *failAfter) Write(p []byte) (int, error) {
	f.writes++
	if f.writes > f.n {
		return 0, fmt.Errorf("write %d refused", f.writes)
	}
	return len(p), nil
}

// TestJSONSinkKeepsFirstWriteError checks that a failed write is reported
// by Err, not swallowed, and that the sink stops writing after it.
func TestJSONSinkKeepsFirstWriteError(t *testing.T) {
	w := &failAfter{n: 1}
	s := NewJSONSink(w, LevelDebug)
	for i := 0; i < 4; i++ {
		s.Emit(NewRecord(0, LevelInfo, "e"))
		if i == 0 && s.Err() != nil {
			t.Fatalf("error after a good write: %v", s.Err())
		}
	}
	if err := s.Err(); err == nil || err.Error() != "write 2 refused" {
		t.Errorf("Err() = %v, want the first failure, write 2", err)
	}
	if w.writes != 2 {
		t.Errorf("sink made %d writes, want none after the failure", w.writes)
	}
}

func TestJSONSinkConcurrent(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONSink(&buf, LevelDebug)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				s.Emit(NewRecord(time.Duration(j), LevelInfo, "e"))
			}
		}()
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 800 {
		t.Fatalf("got %d lines, want 800", len(lines))
	}
	for _, ln := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("corrupt line %q: %v", ln, err)
		}
	}
}

func TestMetricsSnapshot(t *testing.T) {
	m := NewMetrics()
	m.Sim.NoteScheduled(3)
	m.Sim.NoteScheduled(9)
	m.Sim.NoteFired()
	m.Engine.NoteContact()
	m.Engine.NoteSession(true)
	m.Engine.NoteSession(false)
	m.Engine.NoteCascade()
	m.Engine.NoteGenerated()
	m.Engine.NoteGenerated()
	m.Engine.NoteRelayed()
	m.Engine.NoteDelivered()
	m.Engine.NoteBroadcast()
	m.Engine.NotePhase(PhaseWarmup, 10*time.Millisecond)
	m.Engine.NotePhase(PhaseWindow, 30*time.Millisecond)
	m.Engine.NotePhase(PhaseDrain, 5*time.Millisecond)
	m.Protocol.NoteTestStarted()
	m.Protocol.NoteTested(true)
	m.Protocol.NoteTested(false)
	m.Protocol.NoteQualityUpdate()
	m.Protocol.NoteWire(5, 100)
	m.Protocol.NoteWire(5, 120)
	m.Protocol.SetKindNamer(func(k uint8) string {
		if k == 5 {
			return "POR"
		}
		return "?"
	})
	m.Crypto.SetProvider("fast")
	m.Crypto.NoteSign(time.Microsecond)
	m.Crypto.NoteVerify(time.Microsecond)
	m.Crypto.NoteSeal(time.Microsecond)
	m.Crypto.NoteOpen(time.Microsecond)
	m.Crypto.NoteHeavyHMAC(time.Millisecond, 1000)

	s := m.Snapshot()
	if s.Schema != SchemaVersion {
		t.Fatalf("schema = %q", s.Schema)
	}
	if s.Sim.EventsScheduled != 2 || s.Sim.EventsFired != 1 {
		t.Fatalf("sim snapshot = %+v", s.Sim)
	}
	if s.Sim.QueueHighWater != 9 {
		t.Fatalf("queue high water = %d, want 9", s.Sim.QueueHighWater)
	}
	if s.Engine.SessionsRun != 2 || s.Engine.SessionsMoved != 1 {
		t.Fatalf("sessions = %+v", s.Engine)
	}
	if s.Engine.MessagesUndelivered != 1 {
		t.Fatalf("undelivered = %d, want 1", s.Engine.MessagesUndelivered)
	}
	if s.Engine.WallTotalNS != int64(45*time.Millisecond) {
		t.Fatalf("wall total = %d", s.Engine.WallTotalNS)
	}
	if s.Engine.Phases.Window.WallNS != int64(30*time.Millisecond) {
		t.Fatalf("window wall = %d", s.Engine.Phases.Window.WallNS)
	}
	if s.Protocol.TestsPassed != 1 || s.Protocol.TestsFailed != 1 {
		t.Fatalf("tests = %+v", s.Protocol)
	}
	w, ok := s.Protocol.Wire["POR"]
	if !ok || w.Count != 2 || w.Bytes != 220 {
		t.Fatalf("wire = %+v", s.Protocol.Wire)
	}
	if s.Protocol.WireBytesTotal != 220 {
		t.Fatalf("wire bytes total = %d", s.Protocol.WireBytesTotal)
	}
	if s.Crypto.Provider != "fast" {
		t.Fatalf("provider = %q", s.Crypto.Provider)
	}
	if s.Crypto.HeavyHMACIterations != 1000 {
		t.Fatalf("hmac iterations = %d", s.Crypto.HeavyHMACIterations)
	}
	if got := s.EventsPerSec(); got <= 0 {
		t.Fatalf("events/sec = %v, want > 0", got)
	}

	// The snapshot must serialize to valid JSON.
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"schema"`, `"sim"`, `"engine"`, `"protocol"`, `"crypto"`, `"phases"`, `"wire"`} {
		if !bytes.Contains(b, []byte(key)) {
			t.Fatalf("snapshot JSON missing %s: %s", key, b)
		}
	}
}

func TestNilSafety(t *testing.T) {
	var m *Metrics
	if m.Snapshot() != nil {
		t.Fatal("nil Metrics should snapshot to nil")
	}
	var sim *SimStats
	sim.NoteScheduled(1)
	sim.NoteFired()
	var eng *EngineStats
	eng.NoteContact()
	eng.NoteSession(true)
	eng.NoteCascade()
	eng.NoteGenerated()
	eng.NoteRelayed()
	eng.NoteDelivered()
	eng.NoteBroadcast()
	eng.NotePhase(PhaseWindow, time.Second)
	var proto *ProtocolStats
	proto.NoteTestStarted()
	proto.NoteTested(true)
	proto.NoteQualityUpdate()
	proto.NoteWire(1, 10)
	var cr *CryptoStats
	cr.SetProvider("x")
	if cr.Provider() != "" {
		t.Fatal("nil CryptoStats.Provider should be empty")
	}
	cr.NoteSign(1)
	cr.NoteVerify(1)
	cr.NoteSeal(1)
	cr.NoteOpen(1)
	cr.NoteHeavyHMAC(1, 1)
	var snap *Snapshot
	if snap.EventsPerSec() != 0 {
		t.Fatal("nil Snapshot.EventsPerSec should be 0")
	}
}

// TestDisabledPathAllocationFree is the formal zero-cost-when-disabled gate:
// with a sink that filters the record out and live counters, recording must
// not allocate.
func TestDisabledPathAllocationFree(t *testing.T) {
	m := NewMetrics()
	rec := NewRecord(time.Second, LevelInfo, "deliver")
	warnOnly := NewJSONSink(io.Discard, LevelWarn)
	allocs := testing.AllocsPerRun(1000, func() {
		m.Sim.NoteScheduled(4)
		m.Sim.NoteFired()
		m.Engine.NoteSession(true)
		m.Engine.NoteGenerated()
		m.Protocol.NoteWire(5, 128)
		m.Protocol.NoteTested(true)
		m.Crypto.NoteSign(time.Microsecond)
		warnOnly.Emit(rec)
	})
	if allocs != 0 {
		t.Fatalf("disabled/counter-only path allocates %v per op, want 0", allocs)
	}
}

func TestPhaseString(t *testing.T) {
	cases := map[Phase]string{PhaseWarmup: "warmup", PhaseWindow: "window", PhaseDrain: "drain"}
	for p, want := range cases {
		if p.String() != want {
			t.Fatalf("%d.String() = %q, want %q", p, p.String(), want)
		}
	}
	if Level(9).String() != "level(9)" {
		t.Fatalf("unknown level = %q", Level(9).String())
	}
}
