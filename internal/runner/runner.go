// Package runner schedules batches of simulation runs across a worker pool.
//
// The unit of work is a Spec: a fully resolved engine.Config (seed included)
// plus a label for progress and error reporting. A batch of specs executes on
// Jobs concurrent workers (default GOMAXPROCS) and the outcomes are collected
// by spec index, never by completion order, so a sweep's results — and
// everything derived from them, down to the rendered experiment tables — are
// byte-identical no matter how many workers ran it or how they interleaved.
//
// Determinism contract: a run's behavior depends only on its Config. Per-run
// seeds are derived from the sweep's base seed with DeriveSeed before the
// specs are handed to the scheduler, runs share no mutable state (a
// *trace.Trace is immutable and safely shared; a shared *obs.Metrics registry
// is all-atomic), and floating-point reductions downstream iterate outcomes
// in index order. Wall-clock fields (Outcome.Wall, telemetry phase timings)
// are the only thing that varies between schedules.
package runner

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"give2get/internal/engine"
	"give2get/internal/obs"
)

// Spec is one schedulable simulation run.
type Spec struct {
	// Label tags the run in progress lines and failure reports.
	Label string
	// Config fully describes the run; its Seed must already be derived
	// (DeriveSeed) so the spec is self-contained and order-independent.
	Config engine.Config
}

// DeriveSeed returns the seed of repeat r of a base seed. The contract —
// repeat r runs with base+r — is fixed: it is what makes a parallel sweep
// byte-identical to the sequential repeats loop it replaced, and experiment
// outputs stable across scheduler changes.
func DeriveSeed(base int64, repeat int) int64 { return base + int64(repeat) }

// Options tune one scheduler batch. A batch fails fast: after the first
// failure it dispatches no new run, lets the runs in flight complete, and
// marks the undispatched specs Skipped.
type Options struct {
	// Jobs is the number of runs kept in flight; values below 1 mean
	// GOMAXPROCS.
	Jobs int
	// Telemetry, when non-nil, is installed as the registry of every spec
	// that does not carry its own, aggregating the whole batch into one
	// report (all registry recording is atomic, so concurrent runs may
	// share it freely).
	Telemetry *obs.Metrics
	// Progress, when non-nil, receives one line per completed run.
	Progress io.Writer
	// StrictAudit promotes a failed invariant audit (a Result.Audit with
	// violations) to a run error, which stops the batch like any other
	// failure.
	// Runs without an audit report are unaffected.
	StrictAudit bool
	// Context, when non-nil, cancels the batch: in-flight runs stop before
	// their next event and return engine.ErrInterrupted; undispatched specs
	// are marked Skipped. It is also installed as each run's engine Context
	// unless the spec carries its own.
	Context context.Context
	// CheckpointDir, when non-empty, makes the batch crash-safe: the sweep
	// journal there (sweep.journal) gets one synced line per completed run.
	// The directory is created if missing and holds nothing else.
	CheckpointDir string
	// Resume replays CheckpointDir's journal before dispatching. A spec is
	// restored from an entry whose index, label and engine configuration
	// fingerprint (trace contacts included) all match it (Outcome.Restored)
	// instead of re-running; every other spec runs from its beginning.
	Resume bool
}

// Outcome is the result slot of one spec, indexed like the input specs.
type Outcome struct {
	// Label echoes the spec's label.
	Label string
	// Result is the run's result; nil when the run was skipped or failed
	// before finishing. A finished run whose audit failed under StrictAudit,
	// or whose completion could not be journaled, keeps it beside Err.
	Result *engine.Result
	// Err is the run's own failure, if any.
	Err error
	// Skipped marks specs cancelled by an earlier failure (or by the
	// context) before they started.
	Skipped bool
	// Restored marks outcomes replayed from the sweep journal rather than
	// executed; restored results carry no wall-clock telemetry.
	Restored bool
	// Wall is the run's wall-clock duration (zero when skipped). It is the
	// one nondeterministic field of an outcome.
	Wall time.Duration
}

// BatchError reports the failures of a batch. The scheduler returns it (never
// a bare run error) whenever at least one spec failed, with the failures in
// spec order — independent of completion order.
type BatchError struct {
	// Failed and Total count the batch.
	Failed, Total int
	// First is the lowest-index failure.
	First error
	// FirstLabel is its spec's label.
	FirstLabel string
}

// Error implements error.
func (e *BatchError) Error() string {
	if e.Failed == 1 {
		return fmt.Sprintf("runner: run %q failed: %v", e.FirstLabel, e.First)
	}
	return fmt.Sprintf("runner: %d of %d runs failed; first (%q): %v",
		e.Failed, e.Total, e.FirstLabel, e.First)
}

// Unwrap exposes the first failure to errors.Is/As.
func (e *BatchError) Unwrap() error { return e.First }

// Run executes the specs on a worker pool and returns one outcome per spec,
// collected by index. The returned error is nil when every run succeeded and
// a *BatchError otherwise; partial results remain available in the outcomes
// either way (after a failure the undispatched tail is marked Skipped).
func Run(specs []Spec, opts Options) ([]Outcome, error) {
	out := make([]Outcome, len(specs))
	if len(specs) == 0 {
		return out, nil
	}
	var jnl *journal
	done := make([]bool, len(specs))
	if opts.CheckpointDir != "" {
		if err := os.MkdirAll(opts.CheckpointDir, 0o755); err != nil {
			return out, err
		}
		j, restored, err := openJournal(filepath.Join(opts.CheckpointDir, journalName), specs, opts.Resume)
		if err != nil {
			return out, err
		}
		jnl = j
		defer jnl.close()
		for i, o := range restored {
			out[i] = o
			done[i] = true
		}
	}
	jobs := opts.Jobs
	if jobs < 1 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > len(specs) {
		jobs = len(specs)
	}

	var (
		next      atomic.Int64 // next spec index to dispatch
		stop      atomic.Bool  // failure latch, interruptions included
		completed atomic.Int64 // finished runs, for progress numbering
		progMu    sync.Mutex   // serializes progress lines
		wg        sync.WaitGroup
	)
	worker := func() {
		defer wg.Done()
		for {
			i := int(next.Add(1)) - 1
			if i >= len(specs) {
				return
			}
			if done[i] {
				continue // journal-restored
			}
			out[i].Label = specs[i].Label
			if stop.Load() {
				out[i].Skipped = true
				continue
			}
			if opts.Context != nil && opts.Context.Err() != nil {
				out[i].Skipped = true
				continue
			}
			cfg := specs[i].Config
			if cfg.Telemetry == nil {
				cfg.Telemetry = opts.Telemetry
			}
			if cfg.Context == nil {
				cfg.Context = opts.Context
			}
			start := time.Now()
			res, err := engine.Run(cfg)
			runWall := time.Since(start)
			err = promoteAudit(err, opts.StrictAudit, res)
			if err == nil && jnl != nil {
				// A run whose completion cannot be journaled is not
				// completed: resuming would re-run it.
				if jerr := jnl.record(i, specs[i], res); jerr != nil {
					err = fmt.Errorf("runner: journal: %w", jerr)
				}
			}
			out[i].Result, out[i].Err = res, err
			out[i].Wall = time.Since(start)
			if opts.Telemetry != nil {
				// The dispatch span is the scheduler's own overhead for this
				// spec: everything around engine.Run (audit promotion, slot
				// bookkeeping), not the run itself — runs account for their
				// own phases.
				d := out[i].Wall - runWall
				opts.Telemetry.Spans.Note(obs.SpanDispatch, d, d)
			}
			if err != nil {
				stop.Store(true)
			}
			if opts.Progress != nil {
				done := completed.Add(1)
				status := "done"
				if err != nil {
					status = "FAILED: " + err.Error()
				}
				progMu.Lock()
				fmt.Fprintf(opts.Progress, "run %d/%d %s: %s (%.2fs)\n",
					done, len(specs), specs[i].Label, status, out[i].Wall.Seconds())
				progMu.Unlock()
			}
		}
	}
	wg.Add(jobs)
	for j := 0; j < jobs; j++ {
		go worker()
	}
	wg.Wait()

	return out, batchError(out)
}

// promoteAudit turns a failed invariant audit into the run's error when
// StrictAudit is on; a run that already failed, or carries no audit report,
// passes through unchanged.
func promoteAudit(err error, strict bool, res *engine.Result) error {
	if err != nil || !strict || res == nil || res.Audit == nil {
		return err
	}
	return res.Audit.Err()
}

// batchError folds the outcomes into a deterministic *BatchError (or nil):
// failures are counted and the reported one is the lowest-index failure,
// regardless of which finished first.
func batchError(outcomes []Outcome) error {
	var be *BatchError
	for _, o := range outcomes {
		if o.Err == nil {
			continue
		}
		if be == nil {
			be = &BatchError{First: o.Err, FirstLabel: o.Label, Total: len(outcomes)}
		}
		be.Failed++
	}
	if be == nil {
		return nil
	}
	return be
}
