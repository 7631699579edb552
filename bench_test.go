package give2get

// The benchmarks regenerate the paper's tables and figures (one benchmark
// per artifact) plus the ablations DESIGN.md calls out. They run the
// experiment drivers in quick mode so that `go test -bench=. -benchmem`
// finishes on a laptop; `cmd/g2gexp` runs the same drivers at the paper's
// full workload. Headline numbers from each artifact are attached to the
// benchmark output via ReportMetric, so regressions in reproduction quality
// show up as metric drift, not just wall-time drift.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"give2get/internal/experiments"
	"give2get/internal/g2gcrypto"
	"give2get/internal/metrics"
)

// benchOpts is the reduced workload every benchmark uses.
func benchOpts() experiments.Options {
	return experiments.Options{Quick: true, Seed: 1}
}

// benchTelemetry is the registry shared by every benchmark of the run when
// G2G_BENCH_TELEMETRY names an output file (see `make bench-smoke`): the
// experiment benchmarks record into it and the aggregated snapshot — with the
// per-phase span table — lands in that file for `benchjson -phases`.
var (
	benchTelemetryOnce sync.Once
	benchTelemetry     *Metrics
)

func benchTelemetryRegistry() *Metrics {
	if os.Getenv("G2G_BENCH_TELEMETRY") == "" {
		return nil
	}
	benchTelemetryOnce.Do(func() { benchTelemetry = NewMetrics() })
	return benchTelemetry
}

// writeBenchTelemetry freezes the shared registry into the requested file.
// Every finishing benchmark rewrites it, so the file always holds the
// aggregate over everything that ran so far.
func writeBenchTelemetry(b *testing.B, reg *Metrics) {
	b.Helper()
	data, err := json.MarshalIndent(reg.Snapshot(), "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(os.Getenv("G2G_BENCH_TELEMETRY"), append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// runExperimentBench drives one experiment per iteration and lets the caller
// pull metrics out of the resulting tables.
func runExperimentBench(b *testing.B, id string, report func(b *testing.B, tables []*metrics.Table)) {
	b.Helper()
	opts := benchOpts()
	if reg := benchTelemetryRegistry(); reg != nil {
		opts.Telemetry = reg
		b.Cleanup(func() { writeBenchTelemetry(b, reg) })
	}
	for i := 0; i < b.N; i++ {
		tables, err := experiments.Run(id, opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			if report != nil {
				report(b, tables)
			}
			if os.Getenv("G2G_BENCH_PRINT") != "" {
				for _, tbl := range tables {
					if err := tbl.Render(os.Stdout); err != nil {
						b.Fatal(err)
					}
					fmt.Println()
				}
			}
		}
	}
}

// BenchmarkFig3Epidemic regenerates Fig. 3: Epidemic delivery vs droppers.
func BenchmarkFig3Epidemic(b *testing.B) {
	runExperimentBench(b, "fig3", func(b *testing.B, tables []*metrics.Table) {
		b.ReportMetric(float64(len(tables)), "tables")
	})
}

// BenchmarkFig4G2GEpidemicDetection regenerates Fig. 4: dropper detection
// time in G2G Epidemic.
func BenchmarkFig4G2GEpidemicDetection(b *testing.B) {
	runExperimentBench(b, "fig4", nil)
}

// BenchmarkSecVDetectionRate regenerates the Section V detection
// probabilities for G2G Epidemic.
func BenchmarkSecVDetectionRate(b *testing.B) {
	runExperimentBench(b, "secV", nil)
}

// BenchmarkFig5Delegation regenerates Fig. 5: droppers and liars against
// vanilla Delegation Forwarding.
func BenchmarkFig5Delegation(b *testing.B) {
	runExperimentBench(b, "fig5", nil)
}

// BenchmarkTable1G2GDelegation regenerates Table I: detection rates and
// times for all deviations under G2G Delegation.
func BenchmarkTable1G2GDelegation(b *testing.B) {
	runExperimentBench(b, "table1", nil)
}

// BenchmarkFig7DetectionTime regenerates Fig. 7: detection time vs number of
// deviants under G2G Delegation.
func BenchmarkFig7DetectionTime(b *testing.B) {
	runExperimentBench(b, "fig7", nil)
}

// reportSpanMetrics attaches the crypto-heavy spans' per-iteration self time
// to the benchmark output as custom `<span>-ns/op` metrics, so time spent in
// HMAC work, PoR handling, or PoM validation reads by name instead of hiding
// inside total wall.
func reportSpanMetrics(b *testing.B, reg *Metrics) {
	b.Helper()
	for _, sp := range reg.Snapshot().Spans {
		switch sp.Name {
		case "crypto_hmac", "por", "pom":
			b.ReportMetric(float64(sp.SelfNS)/float64(b.N), sp.Name+"-ns/op")
		}
	}
}

// BenchmarkFig7DetectionTimeTelemetry is BenchmarkFig7DetectionTime with a
// live telemetry registry attached to every run: the span profiler's
// enabled-path overhead benchmark. Compare its ns/op against
// BenchmarkFig7DetectionTime in the same report — the gap is what per-phase
// profiling costs on a real experiment.
func BenchmarkFig7DetectionTimeTelemetry(b *testing.B) {
	reg := NewMetrics()
	opts := benchOpts()
	opts.Telemetry = reg
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run("fig7", opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(reg.Snapshot().Spans)), "phases")
	reportSpanMetrics(b, reg)
}

// BenchmarkTable1G2GDelegationTelemetry is BenchmarkTable1G2GDelegation with
// a private telemetry registry, existing for its span metrics: Table I is the
// delegation-side crypto workload, so its crypto_hmac/por/pom per-phase
// timings complement the Fig. 7 variant's.
func BenchmarkTable1G2GDelegationTelemetry(b *testing.B) {
	reg := NewMetrics()
	opts := benchOpts()
	opts.Telemetry = reg
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run("table1", opts); err != nil {
			b.Fatal(err)
		}
	}
	reportSpanMetrics(b, reg)
}

// BenchmarkFig8Performance regenerates Fig. 8: cost/success/delay for all
// six protocols.
func BenchmarkFig8Performance(b *testing.B) {
	runExperimentBench(b, "fig8", nil)
}

// BenchmarkMemoryOverhead regenerates the Section VIII memory comparison.
func BenchmarkMemoryOverhead(b *testing.B) {
	runExperimentBench(b, "memory", nil)
}

// BenchmarkPayoff runs the empirical Nash-equilibrium payoff check of
// Section IV-C.
func BenchmarkPayoff(b *testing.B) {
	runExperimentBench(b, "payoff", nil)
}

// BenchmarkAblationFanout sweeps the relay fan-out limit (the paper's
// "exactly two relays" design choice).
func BenchmarkAblationFanout(b *testing.B) {
	runExperimentBench(b, "abl-fanout", nil)
}

// BenchmarkAblationDelta2 sweeps the Δ2/Δ1 ratio (test-window trade-off).
func BenchmarkAblationDelta2(b *testing.B) {
	runExperimentBench(b, "abl-delta2", nil)
}

// BenchmarkAblationTimeframe sweeps the delegation quality timeframe.
func BenchmarkAblationTimeframe(b *testing.B) {
	runExperimentBench(b, "abl-timeframe", nil)
}

// BenchmarkAblationCrypto compares the Fast and Real crypto providers end to
// end.
func BenchmarkAblationCrypto(b *testing.B) {
	runExperimentBench(b, "abl-crypto", nil)
}

// BenchmarkSimulationRun measures one full G2G Epidemic run (quick
// workload): the unit of work every experiment above repeats.
func BenchmarkSimulationRun(b *testing.B) {
	tr, err := GenerateTrace(PresetInfocom05, 42)
	if err != nil {
		b.Fatal(err)
	}
	cfg := SimulationConfig{
		Trace:           tr,
		Protocol:        G2GEpidemic,
		TTL:             30 * time.Minute,
		Seed:            1,
		MessageInterval: 20 * time.Second,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.SuccessRate, "delivery%")
			b.ReportMetric(res.Cost, "replicas/msg")
		}
	}
}

// benchSweep runs one 8-repeat sweep per iteration at the given job count:
// the scheduler's speedup benchmark. Compare BenchmarkSweepJobs1 against
// BenchmarkSweepJobsNumCPU — on a multi-core machine the latter should be
// well over 1.5x faster; on one core they are the same workload, which
// doubles as a scheduler-overhead check.
func benchSweep(b *testing.B, jobs int) {
	tr, err := GenerateTrace(PresetInfocom05, 42)
	if err != nil {
		b.Fatal(err)
	}
	cfg := SweepConfig{
		SimulationConfig: SimulationConfig{
			Trace:           tr,
			Protocol:        G2GEpidemic,
			TTL:             30 * time.Minute,
			Seed:            1,
			MessageInterval: 20 * time.Second,
		},
		Repeats: 8,
		Jobs:    jobs,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep, err := RunSweep(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(sweep.SuccessRate, "delivery%")
			b.ReportMetric(float64(jobs), "jobs")
		}
	}
}

// BenchmarkSweepJobs1 runs the sweep sequentially.
func BenchmarkSweepJobs1(b *testing.B) { benchSweep(b, 1) }

// BenchmarkSweepJobsNumCPU runs the same sweep with one worker per CPU.
func BenchmarkSweepJobsNumCPU(b *testing.B) { benchSweep(b, runtime.NumCPU()) }

// BenchmarkHeavyHMAC measures the storage-proof cost at the default
// iteration count (the deterrent of the test phase).
func BenchmarkHeavyHMAC(b *testing.B) {
	msg := make([]byte, 1024)
	seed := []byte("challenge seed")
	b.SetBytes(int64(len(msg)))
	for i := 0; i < b.N; i++ {
		g2gcrypto.HeavyHMAC(msg, seed, 1024)
	}
}

// BenchmarkRealSignVerify measures the real-crypto envelope cost per relay
// handoff step.
func BenchmarkRealSignVerify(b *testing.B) {
	sys, err := g2gcrypto.NewReal(2, 1)
	if err != nil {
		b.Fatal(err)
	}
	id, err := sys.Identity(0)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sig := id.Sign(data)
		if !sys.Verify(0, data, sig) {
			b.Fatal("verify failed")
		}
	}
}

// BenchmarkFastSignVerify is the simulated-provider counterpart of
// BenchmarkRealSignVerify.
func BenchmarkFastSignVerify(b *testing.B) {
	sys, err := g2gcrypto.NewFast(2, 1)
	if err != nil {
		b.Fatal(err)
	}
	id, err := sys.Identity(0)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sig := id.Sign(data)
		if !sys.Verify(0, data, sig) {
			b.Fatal("verify failed")
		}
	}
}
