// Command g2gbench is the repository's benchmark. One invocation runs one
// workload through the program's public entry points (give2get.Run,
// experiments.Run), checks that every simulation run is correct, and prints
// its metrics by name and unit, ending with one JSON line:
//
//	{"correct": true, "attempted": 3, "failed": 0, "metrics": {...}}
//
// With -trace 0 it sets the workload up several times and executes it
// untraced for -seconds, reporting the end-to-end metrics (set-up, wall and
// CPU time as medians, peak RSS). With -trace 1 it executes the workload
// once traced (a telemetry registry attached, which switches on the
// program's span profiler and crypto timers) between untraced audited and
// unaudited executions, runs the outside layer passes, and reports the
// per-layer ledger. The benchmark's own spans are written to
// .bench_build/spans/ at exit.
//
// Build and run it from the root of a checkout with g2gbench/run.sh; the
// workloads, metrics and predictions are recorded in BENCHMARK.json.
package main

import (
	"embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

//go:embed pins
var pins embed.FS

// Set-up is repeated at least minSetups times and until setupBudget is
// spent (at most maxSetups times); setup_s is the median. The preset
// workloads set up in milliseconds, so their median needs many samples to
// settle.
const (
	minSetups   = 3
	maxSetups   = 60
	setupBudget = time.Second
)

// passBudget is how long each outside layer pass repeats its measurement.
const passBudget = 300 * time.Millisecond

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("g2gbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := fs.Int64("seed", DefaultSeed, "benchmark seed: draws the trace seed, deviant ids and simulation seed")
	secs := fs.Float64("seconds", 10, "how long the untraced measurement loop runs")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced execution")
	list := fs.Bool("list", false, "print the workload names, one per line, and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, w := range workloads {
			fmt.Fprintln(stdout, w.name)
		}
		return 0
	}
	w, ok := findWorkload(*name)
	if !ok || (*traceMode != 0 && *traceMode != 1) || *secs <= 0 {
		fmt.Fprintf(stderr, "g2gbench: need -workload <name> (one of")
		for _, w := range workloads {
			fmt.Fprintf(stderr, " %s", w.name)
		}
		fmt.Fprintln(stderr, "), -seconds > 0 and -trace 0|1")
		return 2
	}
	cfg := config{
		workload: w,
		seed:     *seed,
		seconds:  time.Duration(*secs * float64(time.Second)),
		traced:   *traceMode == 1,
		scratch:  ".bench_build", // in the checkout root, the working directory
		jobs:     runtime.NumCPU(),
	}
	res, err := runBench(cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "g2gbench: %v\n", err)
		return 1
	}
	if err := printResult(stdout, res); err != nil {
		fmt.Fprintf(stderr, "g2gbench: %v\n", err)
		return 1
	}
	return 0
}

// config is one benchmark invocation.
type config struct {
	workload workload
	seed     int64
	seconds  time.Duration
	traced   bool
	// scratch holds generated files and span dumps.
	scratch string
	jobs    int
	// tiny runs the workload at unit-test scale (the benchmark's tests).
	tiny bool
}

// result is what one invocation measured and concluded.
type result struct {
	env               envStamp
	attempted, failed int
	problems          []string
	metrics           []metric
}

func (r *result) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

// fold adds one execution's operations and problems to the result.
func (r *result) fold(exec string, o *outcome) {
	r.attempted += o.runs
	r.failed += o.failed
	for _, p := range o.problems {
		r.problems = append(r.problems, exec+": "+p)
	}
}

// pinned returns the pinned output of the workload at the default seed.
func pinned(workload string) (string, error) {
	data, err := pins.ReadFile("pins/" + workload + ".txt")
	if err != nil {
		return "", fmt.Errorf("no pinned output for %s: %w", workload, err)
	}
	return string(data), nil
}

// checkOutput compares an audited execution's output with the reference
// (the first execution of the invocation) and, at the default seed and
// full scale, with the pinned one.
func checkOutput(cfg config, r *result, exec string, o *outcome, ref *outcome) {
	if o.failed > 0 {
		return // already counted
	}
	if ref != nil && o.output != ref.output {
		r.failed += o.runs
		r.problems = append(r.problems, fmt.Sprintf("%s: output %s differs from the first execution's %s",
			exec, digestOf(o.output), digestOf(ref.output)))
		return
	}
	if ref != nil || cfg.seed != DefaultSeed || cfg.tiny {
		return
	}
	pin, err := pinned(cfg.workload.name)
	if err != nil {
		r.problems = append(r.problems, err.Error())
		return
	}
	if strings.TrimSpace(pin) != strings.TrimSpace(o.output) {
		r.failed += o.runs
		r.problems = append(r.problems, fmt.Sprintf("%s: output %s differs from the pinned %s",
			exec, digestOf(strings.TrimSpace(o.output)), digestOf(strings.TrimSpace(pin))))
	}
}

func runBench(cfg config, log io.Writer) (*result, error) {
	if p := cfg.workload.procs; p > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p))
	}
	spans := newSpanLog()
	b := &bench{
		work:   filepath.Join(cfg.scratch, "work"),
		tiny:   cfg.tiny,
		jobs:   cfg.jobs,
		traced: cfg.traced,
		spans:  spans,
	}
	res := &result{env: stamp(cfg.workload.name, cfg.seed, cfg.traced)}
	env, _ := json.Marshal(res.env)
	fmt.Fprintf(log, "env %s\n", env)
	fmt.Fprintf(log, "workload %s: %s\n", cfg.workload.name, cfg.workload.why)

	var err error
	if cfg.traced {
		err = runTraced(cfg, b, res, log)
	} else {
		err = runEndToEnd(cfg, b, res, log)
	}
	mode := 0
	if cfg.traced {
		mode = 1
	}
	path, werr := spans.write(filepath.Join(cfg.scratch, "spans"),
		fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload.name, cfg.seed, mode), res.env)
	if err == nil {
		err = werr
	}
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "spans %s\n", path)
	return res, nil
}

// runEndToEnd sets the workload up several times, then executes it untraced
// until the measuring time is spent. Every execution is audited and checked.
func runEndToEnd(cfg config, b *bench, res *result, log io.Writer) error {
	prefix := fmt.Sprintf("%s/seed=%d", cfg.workload.name, cfg.seed)
	var inst instance
	var setups []float64
	var spent time.Duration
	for len(setups) < minSetups || (spent < setupBudget && len(setups) < maxSetups) {
		if inst != nil {
			if err := inst.close(); err != nil {
				return err
			}
		}
		b.spans.setExec(fmt.Sprintf("%s/setup-%d", prefix, len(setups)))
		end := b.spans.begin("setup")
		t0 := time.Now()
		var err error
		inst, err = cfg.workload.setup(b, cfg.seed)
		d := time.Since(t0)
		end()
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
		spent += d
	}
	defer inst.close()

	var walls, cpus []float64
	var ref *outcome
	steal := startSteal()
	start := time.Now()
	for {
		exec := fmt.Sprintf("%s/untraced-%d", prefix, len(walls))
		b.spans.setExec(exec)
		end := b.spans.begin("call")
		o := inst.execute(false, true)
		end()
		res.fold(exec, o)
		checkOutput(cfg, res, exec, o, ref)
		if ref == nil {
			ref = o
			printOutput(log, o)
		}
		walls = append(walls, o.wall.Seconds())
		cpus = append(cpus, o.cpu.Seconds())
		fmt.Fprintf(log, "execution %d: wall %.4fs cpu %.4fs runs %d failed %d\n",
			len(walls)-1, o.wall.Seconds(), o.cpu.Seconds(), o.runs, o.failed)
		if time.Since(start)+time.Duration(median(walls)*float64(time.Second)) > cfg.seconds {
			break
		}
	}
	fmt.Fprintf(log, "%s during the executions\n", steal)
	res.metrics = []metric{
		{name: "setup_s", unit: "s", value: median(setups), basis: fmt.Sprintf("median of %d set-ups", len(setups))},
		{name: "wall_s", unit: "s", value: median(walls), basis: fmt.Sprintf("median of %d executions", len(walls))},
		{name: "cpu_s", unit: "s", value: median(cpus), basis: fmt.Sprintf("median of %d executions", len(cpus))},
		{name: "peak_rss_mb", unit: "MB", value: peakRSSMB(), basis: "process peak, set-up included"},
	}
	return nil
}

// runTraced executes the workload untraced and audited (the reference),
// unaudited, traced, and again untraced audited and unaudited; then it runs
// the outside layer passes and builds the ledger.
func runTraced(cfg config, b *bench, res *result, log io.Writer) error {
	prefix := fmt.Sprintf("%s/seed=%d", cfg.workload.name, cfg.seed)
	setupExec := prefix + "/setup"
	b.spans.setExec(setupExec)
	end := b.spans.begin("setup")
	inst, err := cfg.workload.setup(b, cfg.seed)
	end()
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer inst.close()

	execute := func(kind string, traced, audited bool) *outcome {
		exec := prefix + "/" + kind
		b.spans.setExec(exec)
		end := b.spans.begin("call")
		o := inst.execute(traced, audited)
		end()
		res.fold(exec, o)
		fmt.Fprintf(log, "execution %s: wall %.4fs cpu %.4fs runs %d failed %d\n",
			kind, o.wall.Seconds(), o.cpu.Seconds(), o.runs, o.failed)
		return o
	}
	// Audited and unaudited untraced executions alternate around the traced
	// one, so the A/B overheads compare medians of neighbours.
	steal := startSteal()
	untraced := execute("untraced", false, true)
	checkOutput(cfg, res, prefix+"/untraced", untraced, nil)
	printOutput(log, untraced)
	unaudited := []*outcome{execute("unaudited", false, false)}
	g0 := readGC()
	traced := execute("traced", true, true)
	gc := readGC().sub(g0)
	checkOutput(cfg, res, prefix+"/traced", traced, untraced)
	audited := []*outcome{untraced, execute("untraced-2", false, true)}
	checkOutput(cfg, res, prefix+"/untraced-2", audited[1], untraced)
	unaudited = append(unaudited, execute("unaudited-2", false, false))
	fmt.Fprintf(log, "%s during the executions\n", steal)
	for i, u := range unaudited {
		if u.failed == 0 && u.result != untraced.result {
			res.failed += u.runs
			res.problems = append(res.problems, fmt.Sprintf("%s/unaudited-%d: result %q differs from the audited %q",
				prefix, i+1, u.result, untraced.result))
		}
	}
	if traced.tel == nil || traced.failed > 0 {
		return nil // nothing to build a ledger from; the failure is reported
	}
	if untraced.tel != nil {
		for _, p := range countsMatch(untraced.tel, traced.tel) {
			res.problems = append(res.problems, prefix+": count mismatch "+p)
		}
	}
	if untraced.audit != nil && traced.audit != nil && untraced.audit.Events != traced.audit.Events {
		res.problems = append(res.problems, fmt.Sprintf("%s: audit events %d untraced vs %d traced",
			prefix, untraced.audit.Events, traced.audit.Events))
	}

	b.spans.setExec(prefix + "/passes")
	p, err := runPasses(b, inst, traced)
	if err != nil {
		return err
	}
	_, experiment := inst.(*fig7Run)
	res.metrics = perLayer(tracedExec{
		traced:        traced,
		auditedWall:   medianWall(audited),
		unauditedWall: medianWall(unaudited),
		setupSelf:     selfTimes(b.spans.spans, setupExec),
		pass:          p,
		gc:            gc,
		jobs:          cfg.jobs,
		experiment:    experiment,
	})
	res.problems = append(res.problems, checkBusy(res.metrics)...)
	return nil
}

func medianWall(outs []*outcome) time.Duration {
	walls := make([]float64, len(outs))
	for i, o := range outs {
		walls[i] = float64(o.wall)
	}
	return time.Duration(median(walls))
}

// runPasses runs the outside layer passes on the workload's own inputs.
func runPasses(b *bench, inst instance, traced *outcome) (passes, error) {
	var p passes
	budget := passBudget
	if b.tiny {
		budget /= 10
	}
	streams, err := inst.streams()
	if err != nil {
		return p, fmt.Errorf("streams: %w", err)
	}
	for i := range streams {
		if streams[i].runs == 0 {
			streams[i].runs = traced.runsBySource[streams[i].name]
		}
	}
	end := b.spans.begin("pass.trace")
	p.contacts, p.nextNS, err = tracePass(streams, budget)
	end()
	if err != nil {
		return p, err
	}
	end = b.spans.begin("pass.kernel")
	p.eventNS, err = kernelPass(streams, budget)
	end()
	if err != nil {
		return p, err
	}
	end = b.spans.begin("pass.crypto")
	err = cryptoPass(&p, traced.tel, inst.population(), inst.hmacIterations(), budget)
	end()
	if err != nil {
		return p, err
	}
	end = b.spans.begin("pass.detect")
	p.detect, err = detectPass(streams)
	end()
	return p, err
}

// printOutput shows what an execution produced: the summaries and audit
// digests of single runs, the tables of an experiment.
func printOutput(log io.Writer, o *outcome) {
	if o.audit != nil {
		fmt.Fprintf(log, "audit: %d events, %d violations, %d detections over %d runs\n%s\naudit digests:\n",
			o.audit.Events, o.audit.TotalViolations, len(o.audit.Detections), o.runs, o.result)
	}
	if o.output != "" {
		fmt.Fprintln(log, strings.TrimRight(o.output, "\n"))
	}
}

// printResult writes every metric by name and unit, the problems found,
// and the closing JSON line.
func printResult(w io.Writer, r *result) error {
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%-32s %16.6f %-6s %s\n", m.name, m.value, m.unit, m.basis)
	}
	fmt.Fprintf(w, "operations attempted %d failed %d\n", r.attempted, r.failed)
	for _, p := range r.problems {
		fmt.Fprintf(w, "FAIL %s\n", p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, make(map[string]value, len(r.metrics))}
	for _, m := range r.metrics {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return errors.Join(errors.New("result line"), err)
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
