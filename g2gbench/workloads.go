package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"give2get"
	"give2get/internal/experiments"
	"give2get/internal/invariant"
	"give2get/internal/mobility"
	"give2get/internal/obs"
	"give2get/internal/protocol"
	"give2get/internal/sim"
	"give2get/internal/trace"
)

// A workload is one set of inputs the benchmark runs. Its seed is the
// benchmark's own argument: from it the benchmark draws the inputs the
// workload varies (see each set-up) and hands the program only the
// generated inputs.
type workload struct {
	name string
	why  string
	// setup builds the workload's inputs. It is timed as set-up and may be
	// called several times in one process; each call returns a fresh
	// instance.
	setup func(b *bench, seed int64) (instance, error)
	// procs is the GOMAXPROCS the workload runs under; 0 keeps nproc.
	procs int
}

// sequential is the GOMAXPROCS of the single-run workloads: one simulation
// on one core, as each run of a sweep gets when every core runs one. With a
// second core the collector's share of the wall time depends on whether
// that core is free: on a shared host an infocom-g2g-epidemic execution's
// wall moved from 7% under its CPU time to 4% over it within minutes, which
// doubled the quartile spread of wall_s over ten runs (0.22) against
// cpu_s (0.11).
const sequential = 1

// DefaultSeed is the seed whose outputs are pinned under pins/.
const DefaultSeed = 1

var workloads = []workload{
	{
		name:  "infocom-g2g-epidemic",
		why:   "crypto-dense: 4 audited G2G Epidemic runs on Infocom05, ~1.1M envelope signs and ~1.2k 1024-iteration HMACs each over ~6k kernel events; default seed 1",
		setup: setupInfocom,
		procs: sequential,
	},
	{
		name:  "fig7-quick",
		why:   "the paper's Fig. 7 artifact as g2gexp -quick -audit makes it: 42 audited G2G Delegation runs on nproc jobs; FQ exchanges, 64-iteration HMAC, runner, kclique; inputs fixed; default seed 1",
		setup: setupFig7,
	},
	// BENCHMARK.json does not list large-stream: on a shared 2-vCPU host
	// its engine-bound wall time swings ±25% over tens of seconds with the
	// neighbours' load (a pure SHA-256 loop swings ±9% at the same time),
	// so ten runs' quartile spread reached 0.23-0.34 of the median, around
	// and past the 0.25 cap on any bound. It stays runnable for its
	// per-layer ledger.
	{
		name:  "large-stream",
		why:   "bypass: 20k-node .g2gt streamed from disk, warm-up dominated; trace decoding, sim kernel and engine bookkeeping, ~1k signatures; default seed 1",
		setup: setupLarge,
		procs: sequential,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// bench is the context one benchmark process shares across its workload
// executions.
type bench struct {
	// work is the scratch directory for generated files (inside the checkout).
	work string
	// tiny shrinks every workload to unit-test scale through the same code
	// path (the benchmark's own tests use it).
	tiny bool
	// jobs is the experiment runner's concurrency: nproc.
	jobs int
	// traced makes set-up record generation and encoding as separate spans.
	traced bool
	spans  *spanLog
}

// instance is a set-up workload, ready to execute.
type instance interface {
	// execute runs the workload once. traced attaches a telemetry registry
	// (span profiler and crypto timers on); audited attaches the invariant
	// auditor.
	execute(traced, audited bool) *outcome
	// streams lists the contact sources the runs replay, with their replay
	// windows, for the outside trace and kernel passes.
	streams() ([]stream, error)
	// hmacIterations is the heavy-HMAC iteration count of the runs.
	hmacIterations() int
	// population is the node count the runs' crypto provider serves.
	population() int
	// close removes the instance's scratch files.
	close() error
}

// stream is one contact source the workload's runs replay.
type stream struct {
	name string
	src  trace.Source
	// startAt and endAt bound the replay: warm-up start to drain end.
	startAt, endAt sim.Time
	// runs is how many simulation runs stream this source.
	runs int
}

// outcome is one execution of a workload: its timing, its correctness
// verdict, and what it reported about itself.
type outcome struct {
	wall, cpu    time.Duration
	runs, failed int
	problems     []string
	// output is what the pins hold: the audit digests of single runs, one
	// per line, or the rendered tables of an experiment. Empty when the
	// execution was not audited.
	output string
	// result summarizes the run independently of the auditor, so audited
	// and unaudited executions can be compared.
	result string
	// tel is the execution's telemetry: the summed Result.Telemetry counts
	// of untraced single runs, or the registry snapshot of a traced
	// execution; nil for an untraced experiment.
	tel *obs.Snapshot
	// audit sums the audit reports of single runs.
	audit *invariant.Report
	// runWalls are the per-run walls the experiment runner printed, and
	// runsBySource counts those runs per dataset.
	runWalls     []time.Duration
	runsBySource map[string]int
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// Seed streams drawn from the benchmark seed.
const (
	streamTrace = iota + 1
	streamSim
)

// deriveSeed draws an independent non-negative seed from the benchmark seed
// (a splitmix64 step per stream).
func deriveSeed(seed int64, stream uint64) int64 {
	z := uint64(seed) + stream*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) & math.MaxInt64)
}

// drawSeed is the seed of input draw i of an execution.
func drawSeed(seed int64, i int) int64 { return deriveSeed(seed, uint64(100+i)) }

// --- single simulation runs (give2get.Run) ---

// singleRuns is a workload of give2get.Run calls: one per input draw, run
// back to back as one execution.
type singleRuns struct {
	cfgs  []give2get.SimulationConfig
	iters int
	// source reopens the runs' contact source for the outside passes; path
	// is the scratch file to remove on close, if any.
	source func() (trace.Source, error)
	path   string
}

func (r *singleRuns) execute(traced, audited bool) *outcome {
	o := &outcome{}
	var reg *give2get.Metrics
	if traced {
		// One registry aggregates the draws, as a shared sweep registry does.
		reg = give2get.NewMetrics()
	}
	var outputs, results []string
	c0, t0 := cpuNow(), time.Now()
	for i, cfg := range r.cfgs {
		cfg.Audit.Enabled = audited
		cfg.Registry = reg
		o.runs++
		res, err := give2get.Run(cfg)
		if err != nil {
			o.failed++
			o.problem("draw %d: run: %v", i, err)
			continue
		}
		fails := len(o.problems)
		if reg == nil {
			o.tel = addCounts(o.tel, res.Telemetry)
		}
		results = append(results, fmt.Sprintf("generated=%d delivered=%d detections=%d",
			res.Generated, res.Delivered, len(res.Detections)))
		if res.FalseAccusations != 0 {
			o.problem("draw %d: %d false accusations", i, res.FalseAccusations)
		}
		if audited {
			o.audit = addAudit(o.audit, res.AuditReport)
			if err := res.AuditReport.Err(); err != nil {
				o.problem("draw %d: audit: %v", i, err)
			}
			outputs = append(outputs, res.AuditReport.Digest)
		}
		if len(o.problems) > fails {
			o.failed++
		}
	}
	o.wall, o.cpu = time.Since(t0), cpuNow()-c0
	if reg != nil {
		o.tel = reg.Snapshot()
	}
	o.output = strings.Join(outputs, "\n")
	o.result = strings.Join(results, "\n")
	return o
}

// addAudit folds one run's audit report into an execution's: events and
// violations add up.
func addAudit(sum, r *invariant.Report) *invariant.Report {
	if sum == nil {
		sum = &invariant.Report{}
	}
	if r != nil {
		sum.Events += r.Events
		sum.TotalViolations += r.TotalViolations
		sum.Detections = append(sum.Detections, r.Detections...)
	}
	return sum
}

// addCounts folds one run's telemetry counts into an execution's, the way
// a shared registry aggregates them: counters add, high-water marks take
// the maximum. Timings are not carried (untraced runs record none).
func addCounts(sum, t *obs.Snapshot) *obs.Snapshot {
	if sum == nil {
		sum = &obs.Snapshot{}
	}
	if t == nil {
		return sum
	}
	sum.Sim.EventsFired += t.Sim.EventsFired
	sum.Sim.EventsScheduled += t.Sim.EventsScheduled
	sum.Sim.QueueHighWater = max(sum.Sim.QueueHighWater, t.Sim.QueueHighWater)
	e, te := &sum.Engine, t.Engine
	e.ContactsReplayed += te.ContactsReplayed
	e.SessionsRun += te.SessionsRun
	e.SessionsMoved += te.SessionsMoved
	e.Cascades += te.Cascades
	e.MessagesGenerated += te.MessagesGenerated
	e.MessagesDelivered += te.MessagesDelivered
	p, tp := &sum.Protocol, t.Protocol
	p.TestsStarted += tp.TestsStarted
	p.TestsFailed += tp.TestsFailed
	p.QualityUpdates += tp.QualityUpdates
	p.WireBytesTotal += tp.WireBytesTotal
	for k, w := range tp.Wire {
		if p.Wire == nil {
			p.Wire = make(map[string]obs.WireStat)
		}
		acc := p.Wire[k]
		acc.Count += w.Count
		acc.Bytes += w.Bytes
		p.Wire[k] = acc
	}
	c, tc := &sum.Crypto, t.Crypto
	c.Sign.Count += tc.Sign.Count
	c.Verify.Count += tc.Verify.Count
	c.Seal.Count += tc.Seal.Count
	c.Open.Count += tc.Open.Count
	c.HeavyHMAC.Count += tc.HeavyHMAC.Count
	c.HeavyHMACIterations += tc.HeavyHMACIterations
	return sum
}

func (r *singleRuns) streams() ([]stream, error) {
	src, err := r.source()
	if err != nil {
		return nil, err
	}
	cfg := r.cfgs[0] // the draws share the trace and the window
	from := sim.Time(cfg.WindowStart)
	if from == 0 {
		first, _, err := trace.SpanOf(src)
		if err != nil {
			return nil, err
		}
		from = first + sim.Hour
	}
	return []stream{replayWindow(src.Name(), src, from, sim.Time(cfg.TTL), len(r.cfgs))}, nil
}

// replayWindow is the engine's replay interval for a run whose window
// starts at from: the default 12-hour warm-up before it, the 3-hour window,
// and the Δ2 = 2Δ1 drain after it.
func replayWindow(name string, src trace.Source, from, delta1 sim.Time, runs int) stream {
	return stream{
		name:    name,
		src:     src,
		startAt: max(0, from-12*sim.Hour),
		endAt:   from + 3*sim.Hour + 2*delta1,
		runs:    runs,
	}
}

func (r *singleRuns) hmacIterations() int { return r.iters }
func (r *singleRuns) population() int     { return r.cfgs[0].Trace.Nodes() }

func (r *singleRuns) close() error {
	if r.path == "" {
		return nil
	}
	return os.Remove(r.path)
}

// setupInfocom prepares audited G2G Epidemic runs on the Infocom05 preset:
// Δ1 = 30 min, one message per 4 s, 10 droppers, the library's default
// 1024-iteration heavy HMAC, sequential crypto and warm-up.
//
// The dataset is the one the experiments replay (the preset at its pinned
// trace seed) and the droppers are fixed (see infocomDroppers); the
// benchmark seed draws each run's simulation seed. Drawing the trace too
// would change the work by up to 2.4x from seed to seed, since a preset
// draw fixes how dense the window is.
func setupInfocom(b *bench, seed int64) (instance, error) {
	traceSeed := experiments.Infocom().TraceSeed
	end := b.spans.begin("setup.generate")
	tr, err := give2get.GenerateTrace(give2get.PresetInfocom05, traceSeed)
	end()
	if err != nil {
		return nil, fmt.Errorf("infocom05 trace: %w", err)
	}
	r := &singleRuns{
		iters: protocol.DefaultParams(sim.Time(30 * sim.Minute)).HeavyHMACIterations,
		// GenerateTrace is deterministic: regenerating gives the outside
		// passes the identical in-memory trace the runs replay.
		source: func() (trace.Source, error) {
			return mobility.Generate(mobility.Infocom05(), traceSeed)
		},
	}
	for i := 0; i < infocomDraws; i++ {
		ds := drawSeed(seed, i)
		cfg := give2get.SimulationConfig{
			Trace:     tr,
			Protocol:  give2get.G2GEpidemic,
			TTL:       30 * time.Minute,
			Seed:      deriveSeed(ds, streamSim),
			Deviants:  infocomDroppers(tr.Nodes()),
			Deviation: give2get.Droppers,
		}
		if b.tiny {
			cfg.MessageInterval = 2 * time.Minute
		}
		r.cfgs = append(r.cfgs, cfg)
	}
	return r, nil
}

// infocomDraws is how many simulation seeds one infocom-g2g-epidemic
// execution runs: a single run's work varies by about ±8% with the seed,
// the sum of four by half that.
const infocomDraws = 4

// infocomDroppers is the deviant set `g2gsim -deviants 10` picks at its
// default seed: ten ids spread across the population in steps of 7. It is
// fixed because which nodes drop decides most of the work: ten random sets
// move a run's signature count by ±25%.
func infocomDroppers(population int) []int {
	out := make([]int, 10)
	for i := range out {
		out[i] = (i*7 + 1) % population
	}
	return out
}

// largeConfig is the community trace of the large-stream workload: 1,000
// communities of 20 nodes with sparse bridges over 14 virtual hours.
func largeConfig(tiny bool) mobility.LargeConfig {
	cfg := mobility.LargeConfig{
		Name:          "bench-large",
		Communities:   1000,
		CommunitySize: 20,
		AcrossDegree:  1,
		Duration:      14 * sim.Hour,
		Within:        mobility.PairParams{ShortGap: 45 * sim.Minute, LongGap: 6 * sim.Hour, BurstProb: 0.5},
		Across:        mobility.PairParams{ShortGap: 60 * sim.Minute, LongGap: 10 * sim.Hour, BurstProb: 0.3},
		ContactMean:   90 * sim.Second,
	}
	if tiny {
		cfg.Communities = 20
	}
	return cfg
}

// setupLarge generates the community trace, external-sorts it into a binary
// .g2gt in the scratch directory and opens it as a streaming source. The
// run is one audited G2G Epidemic give2get.Run whose window sits at hour 13,
// so the full 12-hour warm-up streams from disk before any traffic flows.
func setupLarge(b *bench, seed int64) (instance, error) {
	lc := largeConfig(b.tiny)
	traceSeed := deriveSeed(seed, streamTrace)
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(b.work, fmt.Sprintf("large-%d-%d%s", seed, os.Getpid(), trace.BinaryExt))
	w := trace.NewExtWriter(path, lc.Name, lc.Nodes(), trace.ExtOptions{})
	var err error
	if b.traced {
		// Generation and encoding as separate spans: buffer the contacts,
		// then write them.
		var contacts []trace.Contact
		end := b.spans.begin("setup.generate")
		err = mobility.GenerateLarge(lc, traceSeed, func(c trace.Contact) error {
			contacts = append(contacts, c)
			return nil
		})
		end()
		if err == nil {
			end = b.spans.begin("setup.write")
			for _, c := range contacts {
				if err = w.Add(c); err != nil {
					break
				}
			}
			if err == nil {
				err = w.Close()
			}
			end()
		}
	} else {
		end := b.spans.begin("setup.generate_write")
		err = mobility.GenerateLarge(lc, traceSeed, w.Add)
		if err == nil {
			err = w.Close()
		}
		end()
	}
	if err != nil {
		os.Remove(path)
		return nil, fmt.Errorf("large trace: %w", err)
	}
	end := b.spans.begin("setup.open")
	tr, err := give2get.OpenTrace(path)
	end()
	if err != nil {
		os.Remove(path)
		return nil, fmt.Errorf("large trace: %w", err)
	}
	ds := drawSeed(seed, 0)
	cfg := give2get.SimulationConfig{
		Trace:           tr,
		Protocol:        give2get.G2GEpidemic,
		TTL:             30 * time.Minute,
		Seed:            deriveSeed(ds, streamSim),
		WindowStart:     13 * time.Hour,
		MessageInterval: 5 * time.Minute,
	}
	return &singleRuns{
		cfgs:   []give2get.SimulationConfig{cfg},
		iters:  protocol.DefaultParams(sim.Time(cfg.TTL)).HeavyHMACIterations,
		source: func() (trace.Source, error) { return trace.Open(path) },
		path:   path,
	}, nil
}

// --- the Fig. 7 experiment (experiments.Run) ---

// fig7Run is experiments.Run("fig7") at the quick (or, in tests, tiny)
// workload on nproc jobs.
type fig7Run struct {
	opts experiments.Options
}

// fig7Warm records that this process already filled the experiments
// package's dataset memo (Scenario.Trace).
var fig7Warm bool

// setupFig7 generates the two scenario datasets. The first set-up in a
// process fills the experiments package's memo through Scenario.Trace;
// later ones repeat the same cold generation directly, so every set-up
// measures the same work. The benchmark seed does not change the inputs
// (see fig7Seed).
func setupFig7(b *bench, _ int64) (instance, error) {
	for _, s := range experiments.BothScenarios() {
		end := b.spans.begin("setup.generate")
		var err error
		if fig7Warm {
			_, err = mobility.Generate(s.Mobility, s.TraceSeed)
		} else {
			_, err = s.Trace()
		}
		end()
		if err != nil {
			return nil, fmt.Errorf("%s dataset: %w", s.Name, err)
		}
	}
	fig7Warm = true
	return &fig7Run{opts: experiments.Options{
		Quick: !b.tiny,
		Tiny:  b.tiny,
		Seed:  fig7Seed,
		Jobs:  b.jobs,
	}}, nil
}

// fig7Seed is the experiment seed `g2gexp -experiment fig7` uses by
// default, so the workload is the published artifact itself. It is fixed
// rather than drawn from the benchmark seed because it picks the deviant
// sets of every sweep point: over five drawn seeds the execution's wall
// ranged 5.2-7.0 s (quartile spread 21% of the median), more than any
// regression bound could absorb.
const fig7Seed = 1

func (f *fig7Run) execute(traced, audited bool) *outcome {
	opts := f.opts
	opts.Audit = audited
	var reg *obs.Metrics
	if traced {
		reg = obs.NewMetrics()
		opts.Telemetry = reg
	}
	var prog syncBuffer
	opts.Progress = &prog
	o := &outcome{}
	c0, t0 := cpuNow(), time.Now()
	tables, err := experiments.Run("fig7", opts)
	o.wall, o.cpu = time.Since(t0), cpuNow()-c0

	runs, err2 := parseProgress(prog.String())
	if err2 != nil {
		o.problem("progress: %v", err2)
	}
	o.runs, o.failed = runs.total, runs.failed
	o.runWalls, o.runsBySource = runs.walls, runs.bySource
	if err != nil {
		o.problem("experiment: %v", err)
		o.failed = max(o.failed, 1)
		o.runs = max(o.runs, o.failed)
		return o
	}
	var text strings.Builder
	for i, t := range tables {
		if i > 0 {
			text.WriteByte('\n')
		}
		if err := t.Render(&text); err != nil {
			o.problem("render: %v", err)
		}
	}
	o.result = text.String()
	if audited {
		o.output = o.result
	}
	if reg != nil {
		o.tel = reg.Snapshot()
	}
	if len(o.problems) > 0 {
		o.failed = max(o.failed, 1)
	}
	return o
}

func (f *fig7Run) streams() ([]stream, error) {
	// Only the runs of the last execution are known here; the ledger
	// rescales by the per-dataset run counts it observed.
	var out []stream
	for _, s := range experiments.BothScenarios() {
		tr, err := s.Trace()
		if err != nil {
			return nil, err
		}
		from, _, err := s.Window()
		if err != nil {
			return nil, err
		}
		out = append(out, replayWindow(s.Name, tr, from, s.DelegationTTL, 0))
	}
	return out, nil
}

// fig7Iterations is the experiments package's heavy-HMAC iteration count
// (its unexported heavyIterations).
const fig7Iterations = 64

func (f *fig7Run) hmacIterations() int { return fig7Iterations }

func (f *fig7Run) population() int {
	n := 0
	for _, s := range experiments.BothScenarios() {
		if tr, err := s.Trace(); err == nil {
			n = max(n, tr.Nodes())
		}
	}
	return n
}

func (f *fig7Run) close() error { return nil }

// syncBuffer is an io.Writer safe for the runner's concurrent workers.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.String()
}

// progressRuns is what the runner's progress lines say about a batch.
type progressRuns struct {
	// total is the batch size; failed counts the runs that did not finish
	// "done", including those a failure cancelled before they started.
	total, failed int
	walls         []time.Duration
	bySource      map[string]int
}

// parseProgress reads the runner's "run i/n <label>: <status> (<wall>s)"
// lines; other lines (the experiment's own log) are skipped.
func parseProgress(text string) (progressRuns, error) {
	p := progressRuns{bySource: make(map[string]int)}
	done := 0
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "run ") {
			continue
		}
		head, rest, ok := strings.Cut(line[len("run "):], " ")
		_, n, ok2 := strings.Cut(head, "/")
		label, status, ok3 := strings.Cut(rest, ": ")
		open := strings.LastIndex(status, " (")
		if !ok || !ok2 || !ok3 || open < 0 || !strings.HasSuffix(status, "s)") {
			return p, fmt.Errorf("unexpected progress line %q", line)
		}
		total, err := strconv.Atoi(n)
		if err != nil {
			return p, fmt.Errorf("progress line %q: %w", line, err)
		}
		secs, err := strconv.ParseFloat(status[open+2:len(status)-2], 64)
		if err != nil {
			return p, fmt.Errorf("progress line %q: %w", line, err)
		}
		p.total = total
		p.walls = append(p.walls, time.Duration(secs*float64(time.Second)))
		if strings.HasPrefix(status, "done") {
			done++
		}
		source, _, _ := strings.Cut(label, "/")
		p.bySource[source]++
	}
	p.failed = p.total - done
	return p, sc.Err()
}

// digestOf hashes an output for compact printing.
func digestOf(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:8])
}
