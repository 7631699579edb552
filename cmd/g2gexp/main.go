// Command g2gexp regenerates the paper's tables and figures.
//
// Usage:
//
//	g2gexp -experiment fig3          # one experiment (see -list)
//	g2gexp -experiment all -quick    # everything, reduced workload
//	g2gexp -list                     # show experiment ids
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"syscall"

	"give2get/internal/engine"
	"give2get/internal/experiments"
	"give2get/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "g2gexp:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("g2gexp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		experiment = fs.String("experiment", "all", "experiment id, or 'all'")
		quick      = fs.Bool("quick", false, "reduced workload (faster, coarser sweeps)")
		tiny       = fs.Bool("tiny", false, "unit-test scale workload (implies -quick)")
		audit      = fs.Bool("audit", false, "run the invariant auditor on every simulation; any violation fails the experiment")
		seed       = fs.Int64("seed", 1, "seed for workload and deviant selection")
		repeats    = fs.Int("repeats", 1, "average each measurement over this many seeds")
		jobs       = fs.Int("jobs", 0, "concurrent simulations (0 = GOMAXPROCS); output is identical at any value")
		format     = fs.String("format", "text", "output format: text or csv")
		verbose    = fs.Bool("v", false, "log every completed run")
		list       = fs.Bool("list", false, "list experiment ids and exit")
		tracePath  = fs.String("trace", "", "contact trace file, text or binary .g2gt, replacing every scenario's synthetic dataset")
		telemetry  = fs.String("telemetry", "", "write an aggregated JSON run report over all runs to this file")
		ckptDir    = fs.String("checkpoint-dir", "", "directory for crash-safe state: completed runs are journaled there (one subdirectory per experiment), and -resume continues")
		resume     = fs.Bool("resume", false, "continue an interrupted experiment from the journal in -checkpoint-dir: runs journaled under the same configuration and trace are restored, the others run from their beginning")
	)
	var prof obs.Profiler
	prof.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProf, err := prof.Start()
	if err != nil {
		return err
	}
	defer func() {
		if cerr := stopProf(); err == nil {
			err = cerr
		}
	}()
	if *list {
		fmt.Fprintln(stdout, strings.Join(experiments.IDs(), "\n"))
		return nil
	}

	if *resume && *ckptDir == "" {
		return errors.New("-resume requires -checkpoint-dir")
	}
	// Every input is checked before the first run, so a typo fails at once
	// rather than after the experiments that precede it.
	if *format != "text" && *format != "csv" {
		return fmt.Errorf("unknown format %q (want text or csv)", *format)
	}
	known := experiments.IDs()
	ids := known
	if *experiment != "all" {
		ids = strings.Split(*experiment, ",")
		for i, id := range ids {
			ids[i] = strings.TrimSpace(id)
			if !slices.Contains(known, ids[i]) {
				return fmt.Errorf("unknown experiment %q (known: %v)", ids[i], known)
			}
		}
	}
	// SIGINT/SIGTERM cancel the sweep: in-flight runs stop, and the journal
	// keeps everything already finished.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	opts := experiments.Options{Quick: *quick, Tiny: *tiny, Audit: *audit, Seed: *seed, Repeats: *repeats, Jobs: *jobs, TracePath: *tracePath,
		Context: ctx, Resume: *resume}
	if *verbose {
		opts.Progress = stderr
	}
	if *telemetry != "" {
		// One shared registry aggregates every run of every experiment.
		opts.Telemetry = obs.NewMetrics()
	}
	for _, id := range ids {
		if *ckptDir != "" {
			// One journal per experiment, so a multi-experiment invocation
			// stays resumable as a whole.
			opts.CheckpointDir = filepath.Join(*ckptDir, id)
		}
		tables, err := experiments.Run(id, opts)
		if err != nil {
			if errors.Is(err, engine.ErrInterrupted) && *ckptDir != "" {
				fmt.Fprintf(stderr, "g2gexp: interrupted; completed runs journaled under %s (continue with -resume)\n", *ckptDir)
			}
			return err
		}
		for _, tbl := range tables {
			render := tbl.Render
			if *format == "csv" {
				render = tbl.RenderCSV
			}
			if err := render(stdout); err != nil {
				return err
			}
			fmt.Fprintln(stdout)
		}
	}
	if *telemetry != "" {
		b, err := json.MarshalIndent(opts.Telemetry.Snapshot(), "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*telemetry, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}
