package runner

import (
	"errors"
	"fmt"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"give2get/internal/engine"
	"give2get/internal/mobility"
	"give2get/internal/obs"
	"give2get/internal/protocol"
	"give2get/internal/sim"
	"give2get/internal/trace"
)

// testTrace builds one small two-community trace; every test shares it
// read-only, which is itself part of what the concurrency tests exercise.
func testTrace(t testing.TB) *trace.Trace {
	t.Helper()
	cfg := mobility.Config{
		Name:           "runner-test",
		CommunitySizes: []int{6, 6},
		Duration:       30 * sim.Hour,
		Within:         mobility.PairParams{ShortGap: 8 * sim.Minute, LongGap: 80 * sim.Minute, BurstProb: 0.65},
		Across:         mobility.PairParams{ShortGap: 20 * sim.Minute, LongGap: 5 * sim.Hour, BurstProb: 0.3},
		ContactMean:    2 * sim.Minute,
	}
	tr, err := mobility.Generate(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// baseConfig is a light G2G Epidemic run with deviants, so sessions, test
// phases, detections, and PoM broadcasts all execute.
func baseConfig(tr *trace.Trace, seed int64) engine.Config {
	cfg := engine.Config{
		Trace:     tr,
		Protocol:  protocol.G2GEpidemic,
		Params:    protocol.DefaultParams(30 * sim.Minute),
		Seed:      seed,
		Deviants:  []trace.NodeID{2, 7},
		Deviation: protocol.Dropper,
	}
	engine.DefaultWorkload(&cfg, 13*sim.Hour)
	cfg.MessageInterval = 45 * sim.Second
	cfg.Params.HeavyHMACIterations = 4
	return cfg
}

func TestDeriveSeed(t *testing.T) {
	if got := DeriveSeed(7, 0); got != 7 {
		t.Errorf("DeriveSeed(7,0) = %d", got)
	}
	if got := DeriveSeed(7, 3); got != 10 {
		t.Errorf("DeriveSeed(7,3) = %d", got)
	}
}

func TestRunEmptyBatch(t *testing.T) {
	out, err := Run(nil, Options{})
	if err != nil || len(out) != 0 {
		t.Fatalf("empty batch: %v, %v", out, err)
	}
}

// TestConcurrentRunsMatchSequential is the determinism contract end to end:
// >= 8 engine runs execute concurrently over ONE shared *trace.Trace and ONE
// shared *obs.Metrics registry, and every outcome must be identical to its
// sequential twin run in isolation. `go test -race ./internal/runner`
// makes this double as the engine's concurrent-use race check.
func TestConcurrentRunsMatchSequential(t *testing.T) {
	tr := testTrace(t)
	shared := obs.NewMetrics()

	const runs = 9
	specs := make([]Spec, runs)
	for i := range specs {
		specs[i] = Spec{
			Label:  fmt.Sprintf("twin-%d", i),
			Config: baseConfig(tr, DeriveSeed(1, i)),
		}
	}
	out, err := Run(specs, Options{Jobs: runs, Telemetry: shared})
	if err != nil {
		t.Fatal(err)
	}

	var wantGenerated int64
	for i := range specs {
		if out[i].Result == nil || out[i].Err != nil {
			t.Fatalf("run %d: %+v", i, out[i])
		}
		cfg := baseConfig(tr, DeriveSeed(1, i)) // private registry this time
		want, err := engine.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := out[i].Result
		if got.Summary != want.Summary {
			t.Errorf("run %d summary diverged:\nparallel:   %+v\nsequential: %+v",
				i, got.Summary, want.Summary)
		}
		if !reflect.DeepEqual(got.Detection, want.Detection) {
			t.Errorf("run %d detection diverged:\nparallel:   %+v\nsequential: %+v",
				i, got.Detection, want.Detection)
		}
		if !reflect.DeepEqual(got.Usage, want.Usage) {
			t.Errorf("run %d usage accounting diverged", i)
		}
		if !reflect.DeepEqual(got.Detections, want.Detections) || !reflect.DeepEqual(got.Sources, want.Sources) {
			t.Errorf("run %d detections or per-source stats diverged", i)
		}
		wantGenerated += int64(want.Summary.Generated)
	}

	// The shared registry aggregated every run.
	snap := shared.Snapshot()
	if snap.Engine.MessagesGenerated != wantGenerated {
		t.Errorf("shared registry generated = %d, want %d (sum of runs)",
			snap.Engine.MessagesGenerated, wantGenerated)
	}
	if snap.Protocol.TestsStarted == 0 || snap.Engine.PoMBroadcasts == 0 {
		t.Errorf("shared registry missing protocol activity: %+v", snap.Protocol)
	}
}

// TestOutcomesIndexOrderedAcrossJobs runs the same batch at jobs=1 and
// jobs=4 and requires identical outcomes slot by slot: collection is by spec
// index, not completion order.
func TestOutcomesIndexOrderedAcrossJobs(t *testing.T) {
	tr := testTrace(t)
	build := func() []Spec {
		specs := make([]Spec, 6)
		for i := range specs {
			specs[i] = Spec{Label: fmt.Sprintf("r%d", i), Config: baseConfig(tr, DeriveSeed(3, i))}
		}
		return specs
	}
	seq, err := Run(build(), Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(build(), Options{Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if seq[i].Label != par[i].Label {
			t.Fatalf("slot %d label %q vs %q", i, seq[i].Label, par[i].Label)
		}
		if seq[i].Result.Summary != par[i].Result.Summary {
			t.Errorf("slot %d summary differs between jobs=1 and jobs=4", i)
		}
	}
}

// badSpec returns a spec whose config fails validation immediately.
func badSpec(tr *trace.Trace, label string) Spec {
	cfg := baseConfig(tr, 1)
	cfg.MessageInterval = -1
	return Spec{Label: label, Config: cfg}
}

func TestFailFastSkipsTail(t *testing.T) {
	tr := testTrace(t)
	specs := []Spec{
		badSpec(tr, "boom-0"),
		{Label: "ok-1", Config: baseConfig(tr, 1)},
		{Label: "ok-2", Config: baseConfig(tr, 2)},
	}
	out, err := Run(specs, Options{Jobs: 1})
	if err == nil {
		t.Fatal("no error from failing batch")
	}
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("error %T is not *BatchError", err)
	}
	if be.FirstLabel != "boom-0" || be.Failed != 1 {
		t.Errorf("batch error = %+v", be)
	}
	if out[0].Err == nil {
		t.Error("failed run has no error")
	}
	if !out[1].Skipped || !out[2].Skipped {
		t.Errorf("tail not skipped after failure: %+v %+v", out[1], out[2])
	}
}

// progressLine is the exact form of the runner's per-run progress line,
// numbered in completion order; the benchmark module parses it.
var progressLine = regexp.MustCompile(`^run ([0-9]+)/([0-9]+) (\S+): (done|FAILED: .+) \(([0-9]+\.[0-9]{2})s\)$`)

func TestProgressReportsEveryRun(t *testing.T) {
	tr := testTrace(t)
	var buf strings.Builder
	specs := []Spec{
		{Label: "a", Config: baseConfig(tr, 1)},
		{Label: "b", Config: baseConfig(tr, 2)},
		badSpec(tr, "boom"), // last, so its failure skips no other run
	}
	// The progress writer is only written under the runner's own mutex, so a
	// plain strings.Builder is safe here.
	out, err := Run(specs, Options{Jobs: 2, Progress: &buf})
	if err == nil {
		t.Fatal("no error from a batch with a failing run")
	}
	slot := map[string]int{"a": 0, "b": 1, "boom": 2}
	seen := make(map[string]bool)
	ordinals := make(map[string]bool)
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	for _, line := range lines {
		m := progressLine.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("progress line %q does not match %s", line, progressLine)
			continue
		}
		ordinal, n, label, status, secs := m[1], m[2], m[3], m[4], m[5]
		i, ok := slot[label]
		if !ok || seen[label] || ordinals[ordinal] || n != "3" {
			t.Errorf("progress line %q: unknown or repeated label or ordinal", line)
			continue
		}
		seen[label], ordinals[ordinal] = true, true
		want := "done"
		if out[i].Err != nil {
			want = "FAILED: " + out[i].Err.Error()
		}
		if status != want {
			t.Errorf("run %s: status %q, want %q", label, status, want)
		}
		if w := fmt.Sprintf("%.2f", out[i].Wall.Seconds()); secs != w {
			t.Errorf("run %s: wall %ss, want %ss", label, secs, w)
		}
	}
	if len(lines) != len(specs) || !ordinals["1"] || !ordinals["2"] || !ordinals["3"] {
		t.Errorf("want one line per run numbered 1..3:\n%s", buf.String())
	}
	if out[0].Err != nil || out[1].Err != nil || out[2].Err == nil {
		t.Errorf("want a and b done and boom failed, got errors %v, %v, %v", out[0].Err, out[1].Err, out[2].Err)
	}
}

// TestSweepSpansAggregateAcrossWorkers runs a batch on four workers sharing
// one registry and requires the per-phase span table to have aggregated every
// run: one sweep_dispatch note per spec, and engine/protocol/crypto spans
// from inside the runs. Under `go test -race ./internal/runner` (see `make
// race`) this doubles as the data-race check for concurrent span recording
// into a shared SpanStats.
func TestSweepSpansAggregateAcrossWorkers(t *testing.T) {
	tr := testTrace(t)
	shared := obs.NewMetrics()
	const runs = 8
	specs := make([]Spec, runs)
	for i := range specs {
		specs[i] = Spec{Label: labelFor(i), Config: baseConfig(tr, DeriveSeed(1, i))}
	}
	if _, err := Run(specs, Options{Jobs: 4, Telemetry: shared}); err != nil {
		t.Fatal(err)
	}
	snap := shared.Snapshot()
	counts := make(map[string]int64, len(snap.Spans))
	for _, sp := range snap.Spans {
		counts[sp.Name] = sp.Count
	}
	if got := counts[obs.SpanDispatch.String()]; got != runs {
		t.Errorf("sweep_dispatch count = %d, want %d (one per spec)", got, runs)
	}
	for _, sp := range []obs.Span{obs.SpanSchedule, obs.SpanSession, obs.SpanRelay, obs.SpanTest, obs.SpanPoR, obs.SpanCrypto} {
		if counts[sp.String()] == 0 {
			t.Errorf("span %s never recorded across the sweep", sp)
		}
	}
	// The snapshot orders spans by declaration, dispatch last among these.
	if len(snap.Spans) == 0 || snap.Spans[len(snap.Spans)-1].Name != obs.SpanDispatch.String() {
		t.Errorf("snapshot span table missing or misordered: %+v", snap.Spans)
	}
}
