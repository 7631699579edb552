package experiments

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"give2get/internal/engine"
	"give2get/internal/invariant"
	"give2get/internal/kclique"
	"give2get/internal/obs"
	"give2get/internal/protocol"
	"give2get/internal/runner"
	"give2get/internal/sim"
	"give2get/internal/trace"
)

// Options tune how heavy an experiment run is.
type Options struct {
	// Quick trades workload volume for speed: a reduced message rate and a
	// coarser sweep. Benchmarks and CI use it; cmd/g2gexp defaults to the
	// paper's full workload.
	Quick bool
	// Tiny shrinks runs further (unit-test scale): a very light message
	// rate and two-point sweeps. Implies Quick.
	Tiny bool
	// Seed randomizes deviant selection and the workload.
	Seed int64
	// Repeats averages every measurement over this many independent seeds
	// (seed, seed+1, ...; see runner.DeriveSeed). Zero means one run.
	Repeats int
	// Jobs is how many simulations the scheduler keeps in flight; zero
	// means GOMAXPROCS. Results are byte-identical for every value.
	Jobs int
	// Progress, when non-nil, receives one line per completed run.
	Progress io.Writer
	// Telemetry, when non-nil, aggregates every run of the experiment into
	// one shared registry (counters add up across runs and sweeps).
	Telemetry *obs.Metrics
	// Audit attaches the invariant auditor to every run of the experiment
	// and fails the batch on any violation.
	Audit bool
	// TracePath, when non-empty, replaces every scenario's synthetic
	// dataset with the given trace file (text or binary .g2gt). The
	// paper's per-scenario protocol constants still apply.
	TracePath string
	// Context, when non-nil, cancels the experiment: in-flight runs stop,
	// and the batch returns an interruption error.
	Context context.Context
	// CheckpointDir enables crash-safe execution: the experiment keeps a
	// sweep journal (sweep.journal) there, so a killed experiment can be
	// re-invoked with Resume and continue where it stopped. Empty disables
	// it.
	CheckpointDir string
	// Resume replays CheckpointDir's journal before dispatching, skipping
	// runs completed under the same configuration and trace; the others
	// run from their beginning.
	Resume bool
}

// scenarios returns the experiment's datasets, rebound to Options.TracePath
// when one is set.
func (o Options) scenarios() []Scenario {
	ss := BothScenarios()
	if o.TracePath == "" {
		return ss
	}
	for i := range ss {
		ss[i] = ss[i].WithTracePath(o.TracePath)
	}
	return ss
}

// infocom returns the Infocom scenario, rebound to Options.TracePath when
// one is set.
func (o Options) infocom() Scenario {
	s := Infocom()
	if o.TracePath != "" {
		s = s.WithTracePath(o.TracePath)
	}
	return s
}

// interval is the mean Poisson message inter-generation time: the paper's
// one message per 4 seconds, or a lighter rate in quick mode.
func (o Options) interval() sim.Time {
	switch {
	case o.Tiny:
		return 75 * sim.Second
	case o.Quick:
		return 20 * sim.Second
	default:
		return 4 * sim.Second
	}
}

// sweep returns the deviant counts of the x-axes in Figs. 3-5 and 7,
// bounded by the population (the paper sweeps 0..45 in steps of 5).
func (o Options) sweep(population int) []int {
	if o.Tiny {
		return []int{0, population / 2}
	}
	step := 5
	if o.Quick {
		step = 10
	}
	var out []int
	for n := 0; n < population; n += step {
		out = append(out, n)
	}
	return out
}

func (o Options) logf(format string, args ...any) {
	if o.Progress != nil {
		fmt.Fprintf(o.Progress, format+"\n", args...)
	}
}

// heavyIterations keeps the storage-proof cost out of the experiment hot
// path; the crypto ablation studies the real cost separately.
const heavyIterations = 64

// runSpec describes one simulation of the harness.
type runSpec struct {
	scenario      Scenario
	kind          protocol.Kind
	delta1        sim.Time
	deviants      []trace.NodeID
	deviation     protocol.Deviation
	onlyOutsiders bool
	maxRelays     int // 0 means the paper's 2
	delta2Factor  float64
	qualityFrame  sim.Time // 0 means the paper's 34 minutes
	crypto        engine.CryptoProvider
}

// runStats are the per-run measurements the experiment tables report,
// averaged over Options.Repeats seeds.
type runStats struct {
	Success        float64
	Cost           float64
	CostToDelivery float64
	DelayMinutes   float64
	DetectionRate  float64
	// DetectionMinutes is the mean detection time after TTL, averaged over
	// the repeats that detected anything.
	DetectionMinutes float64
	// FalseAccusations sums over repeats (the protocols guarantee zero).
	FalseAccusations int
}

// config resolves the spec into a self-contained engine configuration for
// one derived seed. It runs nothing: all trace generation and community
// detection happen here, sequentially, before the scheduler fans out.
func (o Options) config(spec runSpec, seed int64) (engine.Config, error) {
	// Source fetches are attributed to the trace_load span: the first call
	// per scenario pays the synthetic-mobility generation (or the file
	// open), later ones are memoized lookups (see Scenario.Source).
	traceStart := time.Now()
	src, err := spec.scenario.Source()
	if o.Telemetry != nil {
		d := time.Since(traceStart)
		o.Telemetry.Spans.Note(obs.SpanTraceLoad, d, d)
	}
	if err != nil {
		return engine.Config{}, err
	}
	params := protocol.DefaultParams(spec.delta1)
	params.HeavyHMACIterations = heavyIterations
	if spec.maxRelays > 0 {
		params.MaxRelays = spec.maxRelays
	}
	if spec.delta2Factor > 0 {
		params.Delta2 = sim.Time(float64(spec.delta1) * spec.delta2Factor)
	}
	if spec.qualityFrame > 0 {
		params.QualityFrame = spec.qualityFrame
	}

	cfg := engine.Config{
		Trace:         src,
		Protocol:      spec.kind,
		Params:        params,
		Seed:          seed,
		Crypto:        spec.crypto,
		Deviants:      spec.deviants,
		Deviation:     spec.deviation,
		OnlyOutsiders: spec.onlyOutsiders,
		Telemetry:     o.Telemetry,
	}
	if spec.onlyOutsiders {
		comms, err := scenarioCommunities(spec.scenario)
		if err != nil {
			return engine.Config{}, err
		}
		cfg.Communities = comms
	}
	from, _, err := spec.scenario.Window()
	if err != nil {
		return engine.Config{}, err
	}
	engine.DefaultWorkload(&cfg, from)
	cfg.MessageInterval = o.interval()
	return cfg, nil
}

// batch collects an experiment's measurements so one scheduler pass can run
// every simulation concurrently. Usage is two-phase: the driver registers
// cells (measure/single) and deferred row assembly (then) while walking its
// sweep, calls run once, and reads the cells afterwards. Deferred callbacks
// fire in registration order, so tables and progress logs stay byte-identical
// to the old sequential loops no matter how the runs interleaved.
type batch struct {
	opts     Options
	specs    []runner.Spec
	outcomes []runner.Outcome
	finish   []func()
}

// cell is one measurement of a batch: a runSpec expanded into one run per
// repeat seed, collected by index after the batch executes.
type cell struct {
	b            *batch
	first, count int // index range into the batch's specs
}

func (o Options) newBatch() *batch { return &batch{opts: o} }

// measure registers the spec to run once per repeat seed; its stats average
// the repeats exactly like the old sequential loop.
func (b *batch) measure(spec runSpec) (*cell, error) {
	repeats := b.opts.Repeats
	if repeats < 1 {
		repeats = 1
	}
	return b.add(spec, repeats)
}

// single registers exactly one run at the base seed (no repeat averaging):
// the ablation and payoff drivers inspect its full engine result.
func (b *batch) single(spec runSpec) (*cell, error) {
	return b.add(spec, 1)
}

func (b *batch) add(spec runSpec, repeats int) (*cell, error) {
	c := &cell{b: b, first: len(b.specs), count: repeats}
	for r := 0; r < repeats; r++ {
		cfg, err := b.opts.config(spec, runner.DeriveSeed(b.opts.Seed, r))
		if err != nil {
			return nil, err
		}
		label := fmt.Sprintf("%s/%s", spec.scenario.Name, spec.kind)
		if repeats > 1 {
			label = fmt.Sprintf("%s/r%d", label, r)
		}
		if b.opts.Audit {
			cfg.Audit = &invariant.Options{Label: label}
		}
		b.specs = append(b.specs, runner.Spec{Label: label, Config: cfg})
	}
	return c, nil
}

// then defers work until after run; callbacks fire in registration order.
func (b *batch) then(f func()) { b.finish = append(b.finish, f) }

// run executes every registered spec through the scheduler, then fires the
// deferred callbacks in order.
func (b *batch) run() error {
	ropts := runner.Options{
		Jobs:        b.opts.Jobs,
		Telemetry:   b.opts.Telemetry,
		Progress:    b.opts.Progress,
		StrictAudit: b.opts.Audit,
		Context:     b.opts.Context,
	}
	if b.opts.CheckpointDir != "" {
		ropts.CheckpointDir = b.opts.CheckpointDir
		ropts.Resume = b.opts.Resume
	}
	outs, err := runner.Run(b.specs, ropts)
	if err != nil {
		return err
	}
	b.outcomes = outs
	for _, f := range b.finish {
		f()
	}
	return nil
}

// result returns the cell's first-repeat engine result. Valid after run.
func (c *cell) result() *engine.Result { return c.b.outcomes[c.first].Result }

// wall returns the first-repeat wall-clock duration. Valid after run.
func (c *cell) wall() time.Duration { return c.b.outcomes[c.first].Wall }

// stats averages the cell's repeats into the table metrics, iterating the
// outcomes in index order so the floating-point reduction matches the old
// sequential loop bit for bit. Valid after run.
func (c *cell) stats() runStats {
	var out runStats
	detRuns := 0
	for r := 0; r < c.count; r++ {
		res := c.b.outcomes[c.first+r].Result
		out.Success += res.Summary.SuccessRate
		out.Cost += res.Summary.MeanCost
		out.CostToDelivery += res.Summary.MeanCostToDelivery
		out.DelayMinutes += sim.SecondsOf(res.Summary.MeanDelay) / 60
		out.DetectionRate += res.Detection.Rate
		out.FalseAccusations += res.Detection.FalseAccusations
		if res.Detection.Detected > 0 {
			out.DetectionMinutes += sim.SecondsOf(res.Detection.MeanTimeAfterTTL) / 60
			detRuns++
		}
	}
	n := float64(c.count)
	out.Success /= n
	out.Cost /= n
	out.CostToDelivery /= n
	out.DelayMinutes /= n
	out.DetectionRate /= n
	if detRuns > 0 {
		out.DetectionMinutes /= float64(detRuns)
	}
	return out
}

// run executes one simulation described by the spec at the base seed.
func (o Options) run(spec runSpec) (*engine.Result, error) {
	b := o.newBatch()
	c, err := b.single(spec)
	if err != nil {
		return nil, err
	}
	if err := b.run(); err != nil {
		return nil, err
	}
	return c.result(), nil
}

// pickDeviants selects n deviating nodes deterministically from the seed.
func (o Options) pickDeviants(population, n int, label string) []trace.NodeID {
	if n <= 0 {
		return nil
	}
	if n > population {
		n = population
	}
	rng := sim.StreamFromSeed(o.Seed, "deviants:"+label)
	perm := rng.Perm(population)
	out := make([]trace.NodeID, n)
	for i := 0; i < n; i++ {
		out[i] = trace.NodeID(perm[i])
	}
	return out
}

// scenarioCommunities memoizes k-clique detection per scenario.
func scenarioCommunities(s Scenario) (*kclique.Communities, error) {
	tr, err := s.Trace()
	if err != nil {
		return nil, err
	}
	key := s.cacheKey()
	commCacheMu.Lock()
	defer commCacheMu.Unlock()
	if c, ok := commCache[key]; ok {
		return c, nil
	}
	c, err := kclique.DetectAuto(tr, kclique.DefaultOptions().K)
	if err != nil {
		return nil, err
	}
	commCache[key] = c
	return c, nil
}

var (
	commCacheMu sync.Mutex
	commCache   = make(map[string]*kclique.Communities)
)

// minutes renders a sim.Time as decimal minutes for table cells.
func minutes(t sim.Time) string {
	return fmt.Sprintf("%.1f", sim.SecondsOf(t)/60)
}
