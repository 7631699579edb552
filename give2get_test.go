package give2get

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func testTrace(t *testing.T) *Trace {
	t.Helper()
	tr, err := GenerateTrace(PresetInfocom05, 42)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func quickConfig(t *testing.T, p Protocol) SimulationConfig {
	return SimulationConfig{
		Trace:           testTrace(t),
		Protocol:        p,
		TTL:             30 * time.Minute,
		Seed:            1,
		WindowStart:     33 * time.Hour,
		MessageInterval: 30 * time.Second,
	}
}

func TestGenerateTracePresets(t *testing.T) {
	for _, preset := range []Preset{PresetInfocom05, PresetCambridge06} {
		tr, err := GenerateTrace(preset, 1)
		if err != nil {
			t.Fatalf("%s: %v", preset, err)
		}
		stats, err := tr.Stats()
		if err != nil {
			t.Fatalf("%s: stats: %v", preset, err)
		}
		if stats.Nodes < 30 || stats.Contacts < 1000 {
			t.Errorf("%s stats = %+v", preset, stats)
		}
		if stats.Span < 2*24*time.Hour {
			t.Errorf("%s span = %v", preset, stats.Span)
		}
	}
	if _, err := GenerateTrace(Preset("nope"), 1); err == nil {
		t.Error("unknown preset accepted")
	}
}

func TestTraceWriteParseRoundTrip(t *testing.T) {
	tr := testTrace(t)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Nodes() != tr.Nodes() || parsed.Contacts() != tr.Contacts() {
		t.Errorf("round trip: %d/%d vs %d/%d",
			parsed.Nodes(), parsed.Contacts(), tr.Nodes(), tr.Contacts())
	}
	if parsed.Name() != tr.Name() {
		t.Errorf("name %q vs %q", parsed.Name(), tr.Name())
	}
}

func TestTraceCommunities(t *testing.T) {
	comms, err := testTrace(t).Communities()
	if err != nil {
		t.Fatal(err)
	}
	if len(comms) < 2 {
		t.Errorf("communities = %d, want >= 2", len(comms))
	}
	for _, group := range comms {
		if len(group) < 3 {
			t.Errorf("community %v smaller than k", group)
		}
	}
}

func TestTraceWindow(t *testing.T) {
	tr := testTrace(t)
	w, err := tr.Window(33*time.Hour, 36*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if w.Contacts() == 0 || w.Contacts() >= tr.Contacts() {
		t.Errorf("window contacts = %d of %d", w.Contacts(), tr.Contacts())
	}
}

func TestRunEpidemic(t *testing.T) {
	res, err := Run(quickConfig(t, Epidemic))
	if err != nil {
		t.Fatal(err)
	}
	if res.Generated == 0 {
		t.Fatal("no messages generated")
	}
	if res.SuccessRate <= 0 || res.SuccessRate > 100 {
		t.Errorf("success = %v", res.SuccessRate)
	}
	if res.Cost <= 1 {
		t.Errorf("cost = %v", res.Cost)
	}
	if res.MeanDelay <= 0 {
		t.Errorf("delay = %v", res.MeanDelay)
	}
}

// TestRunSweepDeterministicAcrossJobs checks the public sweep API: the
// aggregate and every per-repeat result must be identical at any job count,
// and repeat r must equal a solo Run at the derived seed.
func TestRunSweepDeterministicAcrossJobs(t *testing.T) {
	cfg := quickConfig(t, G2GEpidemic)
	cfg.Deviants = []int{2, 7}
	cfg.Deviation = Droppers
	seq, err := RunSweep(SweepConfig{SimulationConfig: cfg, Repeats: 3, Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunSweep(SweepConfig{SimulationConfig: cfg, Repeats: 3, Jobs: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Runs) != 3 || len(par.Runs) != 3 {
		t.Fatalf("runs = %d / %d", len(seq.Runs), len(par.Runs))
	}
	if seq.SuccessRate != par.SuccessRate || seq.Cost != par.Cost ||
		seq.MeanDelay != par.MeanDelay || seq.DetectionRate != par.DetectionRate {
		t.Errorf("aggregates differ across job counts:\njobs=1: %+v\njobs=3: %+v", seq, par)
	}
	for r := range seq.Runs {
		if seq.Runs[r].SuccessRate != par.Runs[r].SuccessRate {
			t.Errorf("repeat %d differs across job counts", r)
		}
	}
	solo := cfg
	solo.Seed = cfg.Seed + 1
	ref, err := Run(solo)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Runs[1].SuccessRate != ref.SuccessRate || seq.Runs[1].Generated != ref.Generated {
		t.Errorf("sweep repeat 1 != solo run at seed+1: %+v vs %+v", seq.Runs[1], ref)
	}
}

func TestRunAllProtocols(t *testing.T) {
	for _, p := range Protocols() {
		p := p
		t.Run(string(p), func(t *testing.T) {
			ttl := 30 * time.Minute
			if strings.Contains(string(p), "delegation") {
				ttl = 45 * time.Minute
			}
			cfg := quickConfig(t, p)
			cfg.TTL = ttl
			cfg.MessageInterval = time.Minute
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Generated == 0 {
				t.Error("no messages generated")
			}
		})
	}
}

func TestRunDropperDetection(t *testing.T) {
	cfg := quickConfig(t, G2GEpidemic)
	cfg.Deviants = []int{3, 9, 17}
	cfg.Deviation = Droppers
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DetectionRate <= 0 {
		t.Error("no droppers detected")
	}
	if res.FalseAccusations != 0 {
		t.Errorf("false accusations = %d", res.FalseAccusations)
	}
}

func TestRunValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*SimulationConfig)
	}{
		{name: "nil trace", mutate: func(c *SimulationConfig) { c.Trace = nil }},
		{name: "bad protocol", mutate: func(c *SimulationConfig) { c.Protocol = "bogus" }},
		{name: "zero ttl", mutate: func(c *SimulationConfig) { c.TTL = 0 }},
		{name: "bad deviation", mutate: func(c *SimulationConfig) { c.Deviation = "bogus" }},
		{name: "deviant out of range", mutate: func(c *SimulationConfig) { c.Deviants = []int{999} }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := quickConfig(t, Epidemic)
			tt.mutate(&cfg)
			if _, err := Run(cfg); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := quickConfig(t, G2GEpidemic)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Telemetry contains wall-clock timings, which differ between runs by
	// design; everything it measures in virtual time must not.
	ta, tb := a.Telemetry, b.Telemetry
	a.Telemetry, b.Telemetry = nil, nil
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, different results:\n%+v\n%+v", a, b)
	}
	if ta == nil || tb == nil {
		t.Fatal("telemetry not populated")
	}
	if ta.Sim != tb.Sim {
		t.Errorf("same seed, different sim telemetry:\n%+v\n%+v", ta.Sim, tb.Sim)
	}
	if !reflect.DeepEqual(ta.Protocol, tb.Protocol) {
		t.Errorf("same seed, different protocol telemetry:\n%+v\n%+v", ta.Protocol, tb.Protocol)
	}
	if ta.Engine.MessagesGenerated != tb.Engine.MessagesGenerated ||
		ta.Engine.MessagesRelayed != tb.Engine.MessagesRelayed ||
		ta.Engine.MessagesDelivered != tb.Engine.MessagesDelivered {
		t.Errorf("same seed, different engine telemetry:\n%+v\n%+v", ta.Engine, tb.Engine)
	}
}

func TestExperimentsListed(t *testing.T) {
	ids := Experiments()
	if len(ids) < 10 {
		t.Errorf("experiments = %v", ids)
	}
	if _, err := RunExperiment("bogus", true, 1); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunExperimentQuick(t *testing.T) {
	out, err := RunExperiment("secV", true, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Infocom05") || !strings.Contains(out, "detection rate") {
		t.Errorf("unexpected output:\n%s", out)
	}
}

func TestRunDetectionsExposed(t *testing.T) {
	cfg := quickConfig(t, G2GEpidemic)
	cfg.Deviants = []int{3, 9, 17}
	cfg.Deviation = Droppers
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Detections) == 0 {
		t.Fatal("no detections exposed on the result")
	}
	valid := map[int]bool{3: true, 9: true, 17: true}
	for _, d := range res.Detections {
		if !valid[d.Node] {
			t.Errorf("detection of non-deviant node %d", d.Node)
		}
		if d.Reason != "dropped" {
			t.Errorf("reason = %q", d.Reason)
		}
		if d.At <= 0 {
			t.Errorf("detection at %v", d.At)
		}
	}
}

// withoutTelemetry returns res with its wall-clock telemetry dropped, so
// two runs of one configuration compare equal.
func withoutTelemetry(res *Result) Result {
	out := *res
	out.Telemetry = nil
	return out
}

// cancelOnPhase is a trace sink that cancels its run's context as the run
// enters the named phase, then pauses long enough for the engine to notice,
// so the run stops mid-flight at a point of its own progress.
type cancelOnPhase struct {
	phase  string
	cancel context.CancelFunc
}

func (c cancelOnPhase) Enabled(l TraceLevel) bool { return l >= TraceInfo }

func (c cancelOnPhase) Emit(rec TraceRecord) {
	if rec.Event == "phase" && rec.Reason == c.phase {
		c.cancel()
		time.Sleep(20 * time.Millisecond)
	}
}

// TestResumeInterruptedRun runs a journaled sweep of one to completion, and
// another whose context is cancelled as its window opens, then resumes the
// cancelled one, which runs again from its beginning. Both must give the
// result, audit digest included, of a run without a checkpoint directory,
// and the interrupted run leaves nothing in the directory but the journal.
func TestResumeInterruptedRun(t *testing.T) {
	for _, tc := range []struct {
		protocol  Protocol
		deviation Deviation
	}{
		{Epidemic, Droppers},
		{G2GDelegationFrequency, Liars},
	} {
		t.Run(string(tc.protocol), func(t *testing.T) {
			cfg := quickConfig(t, tc.protocol)
			cfg.Deviants = []int{3, 9, 17}
			cfg.Deviation = tc.deviation
			cfg.Audit = AuditConfig{Enabled: true}
			ref, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := withoutTelemetry(ref)
			if want.AuditReport == nil || !want.AuditReport.Ok() || want.Delivered == 0 {
				t.Fatalf("reference run is not a clean audited run with traffic: %+v", want)
			}

			full, err := RunSweep(SweepConfig{SimulationConfig: cfg, CheckpointDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(withoutTelemetry(full.Runs[0]), want) {
				t.Errorf("journaling changed the run:\n got %+v\nwant %+v", withoutTelemetry(full.Runs[0]), want)
			}

			dir := t.TempDir()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			stopped := cfg
			stopped.Context = ctx
			stopped.Sink = cancelOnPhase{phase: "window", cancel: cancel}
			if _, err := RunSweep(SweepConfig{SimulationConfig: stopped, CheckpointDir: dir}); !errors.Is(err, ErrInterrupted) {
				t.Fatalf("cancelled sweep: %v, want ErrInterrupted", err)
			}
			if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 || entries[0].Name() != "sweep.journal" {
				t.Fatalf("the interrupted run left %v (%v) in its directory, want the journal alone", entries, err)
			}
			got, err := RunSweep(SweepConfig{SimulationConfig: cfg, CheckpointDir: dir, Resume: true})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(withoutTelemetry(got.Runs[0]), want) {
				t.Errorf("resumed run differs:\n got %+v\nwant %+v", withoutTelemetry(got.Runs[0]), want)
			}
		})
	}
}

// TestRunSweepReturnsFinishedRuns fails a sweep after its first repeat, whose
// completion cannot be journaled: RunSweep returns the error beside the
// repeat that finished, and no result for the one it never started.
func TestRunSweepReturnsFinishedRuns(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full:", err)
	}
	dir := t.TempDir()
	if err := os.Symlink("/dev/full", filepath.Join(dir, "sweep.journal")); err != nil {
		t.Fatal(err)
	}
	cfg := quickConfig(t, Epidemic)
	sweep, err := RunSweep(SweepConfig{SimulationConfig: cfg, Repeats: 2, Jobs: 1, CheckpointDir: dir})
	if err == nil {
		t.Fatal("sweep with an unwritable journal succeeded")
	}
	ref, rerr := Run(cfg)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if sweep == nil || sweep.Runs[0] == nil || sweep.Runs[1] != nil {
		t.Fatalf("sweep beside the error = %+v, want the first repeat only", sweep)
	}
	if got, want := withoutTelemetry(sweep.Runs[0]), withoutTelemetry(ref); !reflect.DeepEqual(got, want) {
		t.Errorf("finished repeat = %+v, want %+v", got, want)
	}
}

// TestOpenTraceBinaryRoundTrip writes a trace in the binary format and
// opens it back as a streaming source: it must report the statistics of the
// trace it was written from and run a simulation identically.
func TestOpenTraceBinaryRoundTrip(t *testing.T) {
	mem := testTrace(t)
	var buf bytes.Buffer
	if err := mem.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.g2gt")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	disk, err := OpenTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if disk.Nodes() != mem.Nodes() || disk.Contacts() != mem.Contacts() {
		t.Errorf("opened %d nodes, %d contacts; written %d, %d",
			disk.Nodes(), disk.Contacts(), mem.Nodes(), mem.Contacts())
	}

	cfg := quickConfig(t, G2GEpidemic)
	cfg.Trace = mem
	cfg.Audit = AuditConfig{Enabled: true}
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Trace = disk
	got, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(withoutTelemetry(got), withoutTelemetry(want)) {
		t.Errorf("run on the opened trace differs:\n got %+v\nwant %+v", withoutTelemetry(got), withoutTelemetry(want))
	}

	// Stats materializes the file-backed trace.
	gotStats, err := disk.Stats()
	if err != nil {
		t.Fatal(err)
	}
	wantStats, err := mem.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if gotStats != wantStats {
		t.Errorf("stats %+v, want %+v", gotStats, wantStats)
	}
}
