package give2get

import (
	"context"
	"errors"
	"fmt"
	"time"

	"give2get/internal/engine"
	"give2get/internal/invariant"
	"give2get/internal/obs"
	"give2get/internal/protocol"
	"give2get/internal/runner"
	"give2get/internal/sim"
	"give2get/internal/trace"
)

// Telemetry is the structured run report: counters and timings from every
// layer of the stack (event kernel, engine, protocol, crypto), frozen at the
// end of a run. It serializes to the stable JSON schema named by its Schema
// field.
type Telemetry = obs.Snapshot

// Metrics is a telemetry registry. Every recording operation is atomic, so
// one registry may be shared by concurrent runs, aggregating them (the
// repeats of a RunSweep do).
type Metrics = obs.Metrics

// NewMetrics returns a fresh telemetry registry for SimulationConfig.Registry.
func NewMetrics() *Metrics { return obs.NewMetrics() }

// Protocol names a forwarding protocol.
type Protocol string

// The protocols of the paper.
const (
	// Epidemic is Vahdat & Becker's epidemic forwarding (the baseline).
	Epidemic Protocol = "epidemic"
	// G2GEpidemic is Give2Get Epidemic Forwarding (Section IV).
	G2GEpidemic Protocol = "g2g-epidemic"
	// DelegationFrequency is Delegation Forwarding with the Destination
	// Frequency quality (Erramilli et al.).
	DelegationFrequency Protocol = "delegation-frequency"
	// DelegationLastContact is Delegation Forwarding with the Destination
	// Last Contact quality.
	DelegationLastContact Protocol = "delegation-last-contact"
	// G2GDelegationFrequency is Give2Get Delegation Forwarding with the
	// Destination Frequency quality (Section VI).
	G2GDelegationFrequency Protocol = "g2g-delegation-frequency"
	// G2GDelegationLastContact is Give2Get Delegation Forwarding with the
	// Destination Last Contact quality.
	G2GDelegationLastContact Protocol = "g2g-delegation-last-contact"
)

// Protocols lists all supported protocol names.
func Protocols() []Protocol {
	return []Protocol{Epidemic, G2GEpidemic, DelegationFrequency,
		DelegationLastContact, G2GDelegationFrequency, G2GDelegationLastContact}
}

// Deviation names a selfish strategy for the deviating nodes of a run.
type Deviation string

// The rational deviations of the paper.
const (
	// HonestNodes makes the "deviants" follow the protocol (a control).
	HonestNodes Deviation = "honest"
	// Droppers discard every message right after the relay phase.
	Droppers Deviation = "dropper"
	// Liars report forwarding quality zero when asked (delegation only).
	Liars Deviation = "liar"
	// Cheaters rewrite the quality label of relayed messages to zero
	// (delegation only).
	Cheaters Deviation = "cheater"
)

// SimulationConfig describes one trace-driven run. Zero values get the
// paper's defaults where they exist.
type SimulationConfig struct {
	// Trace is the contact trace to replay (required).
	Trace *Trace
	// Protocol selects the forwarding protocol (required).
	Protocol Protocol
	// TTL is the message TTL Δ1 (required). Δ2 is fixed at 2×TTL as in the
	// paper.
	TTL time.Duration
	// Seed makes the run reproducible (workload, deviant crypto, decoys).
	Seed int64

	// WindowStart positions the 3-hour experiment window inside the trace;
	// zero starts one hour after the trace's first contact.
	WindowStart time.Duration
	// MessageInterval is the mean Poisson inter-generation time; zero means
	// the paper's 4 seconds.
	MessageInterval time.Duration

	// Deviants lists the node ids that play the Deviation strategy, each
	// once: a repeated id is an error.
	Deviants []int
	// Deviation is the deviants' strategy; empty means honest.
	Deviation Deviation
	// OnlyOutsiders restricts the deviation to sessions with members of
	// other (k-clique detected) communities.
	OnlyOutsiders bool

	// RealCrypto switches from the fast HMAC-simulated provider to real
	// Ed25519/X25519/AES-GCM.
	RealCrypto bool

	// Sink, when non-nil, receives the run's trace records; NewJSONTraceSink
	// writes them as leveled JSON lines. Implementations must be safe for
	// concurrent use (RunSweep shares the sink across repeats).
	Sink TraceSink

	// Audit, when enabled, runs the online invariant auditor alongside the
	// simulation and attaches its report to the result.
	Audit AuditConfig

	// Registry, when non-nil, is the registry the run records its telemetry
	// into (instead of a fresh private one). Share it across runs, also
	// concurrent ones, to aggregate them: all recording is atomic.
	// Per-primitive crypto timers and the span profile are recorded only
	// into an attached registry; counts and phase wall times are recorded
	// either way.
	Registry *Metrics

	// Context, when non-nil, cancels the run: the engine stops before its
	// next event and returns ErrInterrupted.
	Context context.Context
}

// ErrInterrupted is returned by a cancelled run.
var ErrInterrupted = engine.ErrInterrupted

// AuditConfig switches on the invariant auditor: a shadow model of the run
// that cross-checks every protocol event and the end-of-run accounting.
type AuditConfig struct {
	// Enabled attaches the auditor; the run's Result then carries a non-nil
	// AuditReport. Violations never abort the run — inspect the report (or
	// use RunSweep, which promotes them to errors).
	Enabled bool
	// Label tags violations with the run's name in multi-run output.
	Label string
}

// AuditReport is the invariant auditor's frozen verdict for one run.
type AuditReport = invariant.Report

// Result summarizes a run.
type Result struct {
	Generated int
	Delivered int
	// SuccessRate is the delivery percentage.
	SuccessRate float64
	MeanDelay   time.Duration
	// Cost is the mean number of replicas created per message.
	Cost float64
	// CostToDelivery is the mean number of replicas that existed when the
	// destination first received the message (the paper's Fig. 8 metric).
	CostToDelivery float64

	// DetectionRate is the percentage of deviants exposed by a proof of
	// misbehavior.
	DetectionRate float64
	// MeanDetectionTime is the average exposure time after the TTL expiry
	// of the exposing message.
	MeanDetectionTime time.Duration
	// FalseAccusations counts proofs against honest nodes (always zero:
	// the protocols make framing impossible).
	FalseAccusations int
	// Detections lists each exposed node with its misbehavior class and
	// exposure time.
	Detections []DetectionInfo

	// Telemetry is the run report: per-subsystem counters and phase wall
	// timings. Always populated; its crypto timers read zero and its spans
	// are empty unless the run had a SimulationConfig.Registry.
	Telemetry *Telemetry

	// AuditReport is the invariant auditor's verdict; nil unless the run was
	// configured with Audit.Enabled.
	AuditReport *AuditReport
}

// DetectionInfo describes one exposed deviant.
type DetectionInfo struct {
	Node int
	// Reason is "dropped", "lied", or "cheated".
	Reason string
	// At is the exposure instant (virtual time from the trace start).
	At time.Duration
}

// engineConfig resolves a SimulationConfig into the engine's configuration
// with the given seed; Run and RunSweep share it.
func engineConfig(cfg SimulationConfig, seed int64) (engine.Config, error) {
	if cfg.Trace == nil || cfg.Trace.src == nil {
		return engine.Config{}, errors.New("give2get: config needs a trace")
	}
	kind, err := protocol.ParseKind(string(cfg.Protocol))
	if err != nil {
		return engine.Config{}, fmt.Errorf("give2get: %w", err)
	}
	if cfg.TTL <= 0 {
		return engine.Config{}, errors.New("give2get: TTL must be positive")
	}

	deviation := protocol.Honest
	switch cfg.Deviation {
	case "", HonestNodes:
	case Droppers:
		deviation = protocol.Dropper
	case Liars:
		deviation = protocol.Liar
	case Cheaters:
		deviation = protocol.Cheater
	default:
		return engine.Config{}, fmt.Errorf("give2get: unknown deviation %q", cfg.Deviation)
	}

	deviants := make([]trace.NodeID, len(cfg.Deviants))
	for i, d := range cfg.Deviants {
		deviants[i] = trace.NodeID(d)
	}

	ecfg := engine.Config{
		Trace:         cfg.Trace.src,
		Protocol:      kind,
		Params:        protocol.DefaultParams(sim.Time(cfg.TTL)),
		Seed:          seed,
		Deviants:      deviants,
		Deviation:     deviation,
		OnlyOutsiders: cfg.OnlyOutsiders,
		Telemetry:     cfg.Registry,
	}
	if cfg.RealCrypto {
		ecfg.Crypto = engine.CryptoReal
	}
	ecfg.TraceSink = cfg.Sink
	if cfg.Audit.Enabled {
		ecfg.Audit = &invariant.Options{Label: cfg.Audit.Label}
	}
	ecfg.Context = cfg.Context

	windowStart := sim.Time(cfg.WindowStart)
	if windowStart == 0 {
		first, _, err := trace.SpanOf(cfg.Trace.src)
		if err != nil {
			return engine.Config{}, fmt.Errorf("give2get: trace span: %w", err)
		}
		windowStart = first + sim.Hour
	}
	engine.DefaultWorkload(&ecfg, windowStart)
	if cfg.MessageInterval > 0 {
		ecfg.MessageInterval = sim.Time(cfg.MessageInterval)
	}
	return ecfg, nil
}

// Run executes a simulation.
func Run(cfg SimulationConfig) (*Result, error) {
	ecfg, err := engineConfig(cfg, cfg.Seed)
	if err != nil {
		return nil, err
	}
	res, err := engine.Run(ecfg)
	if err != nil {
		return nil, err
	}
	return publicResult(res), nil
}

// publicResult converts an engine result into the public shape.
func publicResult(res *engine.Result) *Result {
	detections := make([]DetectionInfo, 0, len(res.Detections))
	for _, d := range res.Detections {
		detections = append(detections, DetectionInfo{
			Node:   int(d.Accused),
			Reason: d.Reason.String(),
			At:     d.At.Duration(),
		})
	}
	out := &Result{
		Telemetry:         res.Telemetry,
		AuditReport:       res.Audit,
		Detections:        detections,
		Generated:         res.Summary.Generated,
		Delivered:         res.Summary.Delivered,
		SuccessRate:       res.Summary.SuccessRate,
		MeanDelay:         res.Summary.MeanDelay.Duration(),
		Cost:              res.Summary.MeanCost,
		CostToDelivery:    res.Summary.MeanCostToDelivery,
		DetectionRate:     res.Detection.Rate,
		MeanDetectionTime: res.Detection.MeanTimeAfterTTL.Duration(),
		FalseAccusations:  res.Detection.FalseAccusations,
	}
	return out
}

// SweepConfig describes a batch of repeats of one simulation, executed
// concurrently on a worker pool. A single crash-safe run is a sweep of one
// repeat.
type SweepConfig struct {
	SimulationConfig
	// Repeats is how many runs to average, at seeds derived from Seed
	// (Seed, Seed+1, ...). Values below 1 mean one run.
	Repeats int
	// Jobs is how many runs the scheduler keeps in flight; values below 1
	// mean GOMAXPROCS. The results are identical for every value.
	Jobs int
	// CheckpointDir, when non-empty, makes the sweep crash-safe: a journal
	// there (sweep.journal) records every completed repeat. The directory
	// is created if missing.
	CheckpointDir string
	// Resume replays CheckpointDir's journal: a repeat journaled under the
	// same configuration and trace is restored instead of re-running, and
	// every other repeat runs from its beginning.
	Resume bool
}

// SweepResult aggregates a sweep: the per-repeat results in seed order plus
// the headline metrics averaged across them.
type SweepResult struct {
	// Runs holds each repeat's full result, indexed by repeat number.
	Runs []*Result
	// SuccessRate, MeanDelay, Cost, CostToDelivery, and DetectionRate are
	// the repeats' means.
	SuccessRate    float64
	MeanDelay      time.Duration
	Cost           float64
	CostToDelivery float64
	DetectionRate  float64
}

// RunSweep executes cfg.Repeats runs with derived seeds across cfg.Jobs
// workers and averages the headline metrics. The aggregate is deterministic:
// results are collected and reduced in repeat order, so the same base seed
// yields the same SweepResult at any job count. With audits enabled, a
// violation fails the sweep. When a repeat fails, RunSweep returns the
// error beside a SweepResult whose Runs hold every repeat that finished,
// one whose audit failed included, and nil for the others; its means are
// left zero.
func RunSweep(cfg SweepConfig) (*SweepResult, error) {
	repeats := cfg.Repeats
	if repeats < 1 {
		repeats = 1
	}
	specs := make([]runner.Spec, repeats)
	for r := 0; r < repeats; r++ {
		ecfg, err := engineConfig(cfg.SimulationConfig, runner.DeriveSeed(cfg.Seed, r))
		if err != nil {
			return nil, err
		}
		label := fmt.Sprintf("repeat-%d", r)
		// Violations name their repeat; a lone run's report reads as
		// Run's would.
		if repeats > 1 && ecfg.Audit != nil && ecfg.Audit.Label == "" {
			ecfg.Audit = &invariant.Options{Label: label}
		}
		specs[r] = runner.Spec{Label: label, Config: ecfg}
	}
	outcomes, err := runner.Run(specs, runner.Options{
		Jobs:          cfg.Jobs,
		StrictAudit:   cfg.Audit.Enabled,
		Context:       cfg.Context,
		CheckpointDir: cfg.CheckpointDir,
		Resume:        cfg.Resume,
	})
	sweep := &SweepResult{Runs: make([]*Result, repeats)}
	for r, o := range outcomes {
		if o.Result != nil {
			sweep.Runs[r] = publicResult(o.Result)
		}
	}
	if err != nil {
		return sweep, err
	}
	var delay time.Duration
	for _, res := range sweep.Runs {
		sweep.SuccessRate += res.SuccessRate
		delay += res.MeanDelay
		sweep.Cost += res.Cost
		sweep.CostToDelivery += res.CostToDelivery
		sweep.DetectionRate += res.DetectionRate
	}
	n := float64(repeats)
	sweep.SuccessRate /= n
	sweep.MeanDelay = delay / time.Duration(repeats)
	sweep.Cost /= n
	sweep.CostToDelivery /= n
	sweep.DetectionRate /= n
	return sweep, nil
}

// Experiments returns the ids of the paper-reproduction experiments usable
// with RunExperiment.
func Experiments() []string {
	return experimentIDs()
}

// ExperimentOptions tune RunExperimentWith.
type ExperimentOptions struct {
	// Quick trades workload volume for speed.
	Quick bool
	// Seed randomizes deviant selection and the workload.
	Seed int64
	// Repeats averages every measurement over this many derived seeds; zero
	// means one run.
	Repeats int
	// Jobs is how many simulations run concurrently; zero means GOMAXPROCS.
	// The rendered output is byte-identical for every value.
	Jobs int
	// Audit runs the invariant auditor on every simulation of the
	// experiment; any violation fails the experiment with an error.
	Audit bool
	// TracePath, when non-empty, replaces every scenario's synthetic
	// dataset with a trace file (text or binary .g2gt, as OpenTrace).
	TracePath string
	// Context, when non-nil, cancels the experiment: in-flight simulations
	// stop and the experiment returns an interruption error.
	Context context.Context
	// CheckpointDir, when non-empty, makes the experiment crash-safe: the
	// sweep journal there records completed runs, so an interrupted
	// experiment can be resumed.
	CheckpointDir string
	// Resume continues an experiment interrupted under the same
	// CheckpointDir: runs journaled under the same configuration and trace
	// are restored without re-executing, and the others run from their
	// beginning.
	Resume bool
}

// RunExperiment regenerates one of the paper's tables or figures and returns
// it rendered as text. Set quick for a reduced workload.
func RunExperiment(id string, quick bool, seed int64) (string, error) {
	return RunExperimentWith(id, ExperimentOptions{Quick: quick, Seed: seed})
}

// RunExperimentWith is RunExperiment with the full option set, including
// repeat averaging and parallel execution.
func RunExperimentWith(id string, opts ExperimentOptions) (string, error) {
	return runExperiment(id, opts)
}
