package experiments

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"give2get/internal/metrics"
	"give2get/internal/protocol"
	"give2get/internal/sim"
	"give2get/internal/trace"
)

func quickOpts() Options {
	return Options{Quick: true, Seed: 1}
}

func TestScenarioTracesCachedAndValid(t *testing.T) {
	for _, s := range BothScenarios() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			tr, err := s.Trace()
			if err != nil {
				t.Fatal(err)
			}
			again, err := s.Trace()
			if err != nil {
				t.Fatal(err)
			}
			if tr != again {
				t.Error("trace not memoized")
			}
			from, to, err := s.Window()
			if err != nil {
				t.Fatal(err)
			}
			if to-from != 3*sim.Hour {
				t.Errorf("window = %v", to-from)
			}
			_, last := tr.Span()
			if to > last {
				t.Errorf("window [%v,%v) beyond trace end %v", from, to, last)
			}
		})
	}
}

func TestSweep(t *testing.T) {
	full := Options{}.sweep(41)
	if full[0] != 0 || full[len(full)-1] != 40 || len(full) != 9 {
		t.Errorf("full sweep = %v", full)
	}
	quick := Options{Quick: true}.sweep(36)
	if len(quick) != 4 || quick[len(quick)-1] != 30 {
		t.Errorf("quick sweep = %v", quick)
	}
}

func TestPickDeviants(t *testing.T) {
	opts := Options{Seed: 3}
	a := opts.pickDeviants(20, 5, "x")
	b := opts.pickDeviants(20, 5, "x")
	if len(a) != 5 {
		t.Fatalf("len = %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("deviant selection not deterministic")
		}
	}
	seen := map[int]bool{}
	for _, d := range a {
		if seen[int(d)] || int(d) >= 20 {
			t.Fatalf("invalid deviant set %v", a)
		}
		seen[int(d)] = true
	}
	if got := opts.pickDeviants(3, 10, "y"); len(got) != 3 {
		t.Errorf("overrequest yielded %d deviants", len(got))
	}
	if got := opts.pickDeviants(3, 0, "z"); got != nil {
		t.Errorf("zero request yielded %v", got)
	}
}

func TestRegistryKnownIDs(t *testing.T) {
	ids := IDs()
	want := []string{"abl-crypto", "abl-delta2", "abl-fanout", "abl-timeframe",
		"fig3", "fig4", "fig5", "fig7", "fig8", "memory", "payoff", "secV", "table1"}
	if len(ids) != len(want) {
		t.Fatalf("ids = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("ids = %v, want %v", ids, want)
		}
	}
	if _, err := Run("nope", quickOpts()); err == nil {
		t.Error("unknown id accepted")
	}
}

// TestSecVQuick exercises a full detection experiment end to end at the
// quick scale and sanity-checks the headline claim: G2G Epidemic detects
// most droppers within minutes.
func TestSecVQuick(t *testing.T) {
	tables, err := SecV(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || rowCount(t, tables[0]) != 4 {
		t.Fatalf("tables = %+v", tables)
	}
	var b strings.Builder
	if err := tables[0].Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Infocom05") || !strings.Contains(b.String(), "Cambridge06") {
		t.Errorf("render:\n%s", b.String())
	}
}

// TestFig8Quick checks the performance comparison shape at quick scale:
// G2G Epidemic must cost less than Epidemic while staying close on success.
func TestFig8Quick(t *testing.T) {
	opts := quickOpts()
	scenario := Infocom()
	epidemic, err := opts.run(runSpec{
		scenario: scenario, kind: protocol.Epidemic, delta1: scenario.EpidemicTTL,
	})
	if err != nil {
		t.Fatal(err)
	}
	g2g, err := opts.run(runSpec{
		scenario: scenario, kind: protocol.G2GEpidemic, delta1: scenario.EpidemicTTL,
	})
	if err != nil {
		t.Fatal(err)
	}
	if g2g.Summary.MeanCost >= epidemic.Summary.MeanCost {
		t.Errorf("G2G cost %.2f not below Epidemic %.2f",
			g2g.Summary.MeanCost, epidemic.Summary.MeanCost)
	}
	if g2g.Summary.SuccessRate < epidemic.Summary.SuccessRate-20 {
		t.Errorf("G2G success %.1f%% too far below Epidemic %.1f%%",
			g2g.Summary.SuccessRate, epidemic.Summary.SuccessRate)
	}
}

// TestAllExperimentsTiny drives every registered experiment at unit-test
// scale: each driver must produce at least one non-empty table without
// error. This is the integration test for the whole reproduction pipeline.
func TestAllExperimentsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("tiny experiment sweep skipped in -short mode")
	}
	opts := Options{Tiny: true, Quick: true, Seed: 1}
	for _, id := range sweepIDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			tables, err := Run(id, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(tables) == 0 {
				t.Fatal("no tables produced")
			}
			for _, tbl := range tables {
				if rowCount(t, tbl) == 0 {
					t.Errorf("table %q has no rows", tbl.Title)
				}
				var b strings.Builder
				if err := tbl.Render(&b); err != nil {
					t.Fatal(err)
				}
				if len(b.String()) == 0 {
					t.Error("empty render")
				}
			}
		})
	}
}

// sweepIDs is the experiment id set the full-registry tests cover: everything
// normally, a representative subset under the race detector (raceEnabled).
func sweepIDs() []string {
	if raceEnabled {
		return []string{"secV", "fig8", "abl-crypto"}
	}
	return IDs()
}

// renderAll renders an experiment's tables into one string.
func renderAll(t *testing.T, id string, opts Options) string {
	t.Helper()
	tables, err := Run(id, opts)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, tbl := range tables {
		if err := tbl.Render(&b); err != nil {
			t.Fatal(err)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// tableShape summarizes an experiment's tables as titles and row counts. The
// abl-crypto tables contain wall-clock columns, so only this shape — not the
// rendered bytes — can be stable across schedules.
func tableShape(t *testing.T, id string, opts Options) string {
	t.Helper()
	tables, err := Run(id, opts)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, tbl := range tables {
		fmt.Fprintf(&b, "%s: %d rows\n", tbl.Title, rowCount(t, tbl))
	}
	return b.String()
}

// TestExperimentsByteIdenticalAcrossJobs is the tentpole acceptance check:
// for every experiment id, the rendered output at -jobs 1 and -jobs 4 must
// match byte for byte (abl-crypto's wall-time columns excepted: there the
// table titles and row counts must match).
func TestExperimentsByteIdenticalAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-jobs sweep skipped in -short mode")
	}
	for _, id := range sweepIDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			seq := Options{Tiny: true, Quick: true, Seed: 1, Repeats: 2, Jobs: 1}
			par := Options{Tiny: true, Quick: true, Seed: 1, Repeats: 2, Jobs: 4}
			if id == "abl-crypto" {
				if a, b := tableShape(t, id, seq), tableShape(t, id, par); a != b {
					t.Errorf("table shape differs between jobs=1 and jobs=4:\n%s\nvs\n%s", a, b)
				}
				return
			}
			if a, b := renderAll(t, id, seq), renderAll(t, id, par); a != b {
				t.Errorf("output differs between jobs=1 and jobs=4:\n%s\nvs\n%s", a, b)
			}
		})
	}
}

// TestProgressLogDeterministicAcrossJobs pins the -v log stream: deferred
// callbacks fire in registration order, so the experiment's own log lines
// (not the runner's completion lines) are identical at any job count.
func TestProgressLogDeterministicAcrossJobs(t *testing.T) {
	logOf := func(jobs int) string {
		var buf strings.Builder
		opts := Options{Tiny: true, Quick: true, Seed: 1, Jobs: jobs, Progress: &buf}
		if _, err := Run("secV", opts); err != nil {
			t.Fatal(err)
		}
		var kept []string
		for _, line := range strings.Split(buf.String(), "\n") {
			if strings.HasPrefix(line, "run ") { // runner completion lines are schedule-dependent
				continue
			}
			kept = append(kept, line)
		}
		return strings.Join(kept, "\n")
	}
	if seq, par := logOf(1), logOf(3); seq != par {
		t.Errorf("experiment log differs between jobs=1 and jobs=3:\n%q\nvs\n%q", seq, par)
	}
}

func TestMeasureAveragesOverRepeats(t *testing.T) {
	opts := Options{Tiny: true, Quick: true, Seed: 1, Repeats: 2}
	scenario := Infocom()
	stats, err := opts.measure(runSpec{
		scenario: scenario, kind: protocol.Epidemic, delta1: scenario.EpidemicTTL,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Success <= 0 || stats.Success > 100 {
		t.Errorf("averaged success = %v", stats.Success)
	}
	if stats.Cost <= 0 || stats.CostToDelivery <= 0 {
		t.Errorf("averaged costs = %v / %v", stats.Cost, stats.CostToDelivery)
	}
	// The average of two seeds should differ from either single seed (with
	// overwhelming probability on a stochastic workload).
	single, err := Options{Tiny: true, Quick: true, Seed: 1}.measure(runSpec{
		scenario: scenario, kind: protocol.Epidemic, delta1: scenario.EpidemicTTL,
	})
	if err != nil {
		t.Fatal(err)
	}
	if single == stats {
		t.Error("repeats had no effect on the measurement")
	}
}

// TestScenarioTracePath runs a file-backed scenario end to end: the Infocom
// dataset is exported to a binary .g2gt file, every scenario accessor must
// pick up the streamed source, and a tiny measurement must execute against
// it — the same path `g2gexp -trace` exercises.
func TestScenarioTracePath(t *testing.T) {
	base, err := Infocom().Trace()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "infocom"+trace.BinaryExt)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteBinary(f, base); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	s := Infocom().WithTracePath(path)
	if !strings.Contains(s.Name, filepath.Base(path)) {
		t.Errorf("rebound name %q does not mention the file", s.Name)
	}
	src, err := s.Source()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := src.(*trace.BinarySource); !ok {
		t.Fatalf("source is %T, want *trace.BinarySource", src)
	}
	again, err := s.Source()
	if err != nil {
		t.Fatal(err)
	}
	if src != again {
		t.Error("file-backed source not memoized")
	}

	from, to, err := s.Window()
	if err != nil {
		t.Fatal(err)
	}
	if to-from != 3*sim.Hour {
		t.Errorf("window = %v, want 3h", to-from)
	}
	first, _, err := trace.SpanOf(src)
	if err != nil {
		t.Fatal(err)
	}
	if from != first+sim.Hour {
		t.Errorf("window start = %v, want first contact + 1h = %v", from, first+sim.Hour)
	}

	opts := Options{Tiny: true, Quick: true, Seed: 1, TracePath: path}
	scenario := opts.infocom()
	if scenario.TracePath != path {
		t.Fatalf("infocom() ignored Options.TracePath")
	}
	stats, err := opts.measure(runSpec{
		scenario: scenario, kind: protocol.Epidemic, delta1: scenario.EpidemicTTL,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Success <= 0 || stats.Success > 100 {
		t.Errorf("file-backed success = %v", stats.Success)
	}
}

// measure runs the spec Repeats times with derived seeds and averages the
// table metrics: the one-off form of batch.measure, where the experiment
// drivers batch their whole sweep.
func (o Options) measure(spec runSpec) (runStats, error) {
	b := o.newBatch()
	c, err := b.measure(spec)
	if err != nil {
		return runStats{}, err
	}
	if err := b.run(); err != nil {
		return runStats{}, err
	}
	return c.stats(), nil
}

// rowCount counts a table's data rows through its CSV form, whose title is
// a comment line and whose first record is the header.
func rowCount(t *testing.T, tbl *metrics.Table) int {
	t.Helper()
	var b strings.Builder
	if err := tbl.RenderCSV(&b); err != nil {
		t.Fatal(err)
	}
	r := csv.NewReader(strings.NewReader(b.String()))
	r.Comment = '#'
	records, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return len(records) - 1
}
