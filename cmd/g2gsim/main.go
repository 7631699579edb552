// Command g2gsim runs a single forwarding simulation and prints its
// metrics.
//
// Usage:
//
//	g2gsim -preset infocom05 -protocol g2g-epidemic -ttl 30m
//	g2gsim -trace contacts.txt -protocol epidemic -ttl 35m \
//	       -droppers 10 -outsiders
//	g2gsim -telemetry report.json -tracelog trace.jsonl -cpuprofile cpu.out
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
	"syscall"
	"time"

	"give2get"
	"give2get/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "g2gsim:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("g2gsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		preset    = fs.String("preset", "infocom05", "built-in trace preset (infocom05|cambridge06)")
		tracePath = fs.String("trace", "", "contact trace file, text or binary .g2gt (overrides -preset)")
		proto     = fs.String("protocol", "g2g-epidemic", "forwarding protocol")
		ttl       = fs.Duration("ttl", 30*time.Minute, "message TTL Δ1 (Δ2 = 2×TTL)")
		seed      = fs.Int64("seed", 1, "simulation seed")
		window    = fs.Duration("window", 0, "experiment window start inside the trace (0 = auto)")
		interval  = fs.Duration("interval", 4*time.Second, "mean message inter-generation time")
		deviants  = fs.Int("deviants", 0, "number of deviating nodes")
		deviation = fs.String("deviation", "dropper", "deviation strategy (dropper|liar|cheater)")
		outsiders = fs.Bool("outsiders", false, "deviants spare their own community")
		realCrypt = fs.Bool("realcrypto", false, "use Ed25519/X25519/AES-GCM instead of the fast provider")
		audit     = fs.Bool("audit", false, "run the invariant auditor alongside the simulation; violations fail the run")
		repeats   = fs.Int("repeats", 1, "average the run over this many derived seeds (seed, seed+1, ...)")
		jobs      = fs.Int("jobs", 0, "concurrent runs when -repeats > 1 (0 = GOMAXPROCS)")
		telemetry = fs.String("telemetry", "", "write the JSON run report (counters, phase timings) to this file")
		tracelog  = fs.String("tracelog", "", "write a leveled JSON-lines trace of the run to this file")
		ckptDir   = fs.String("checkpoint-dir", "", "directory for crash-safe state: completed runs are journaled there (sweep.journal), and -resume continues")
		resume    = fs.Bool("resume", false, "continue from the journal in -checkpoint-dir: runs journaled under the same configuration and trace are restored, the others run from their beginning")
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
	if *resume && *ckptDir == "" {
		return errors.New("-resume requires -checkpoint-dir")
	}
	// SIGINT/SIGTERM cancel the run: the engine stops before its next event
	// and returns ErrInterrupted.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	// Per-primitive timers and spans record only into an attached registry,
	// so one is attached whenever a report is written. It exists for the
	// whole invocation, so the trace_load span below and every run (repeats
	// included) aggregate into the same report.
	var reg *give2get.Metrics
	if *telemetry != "" {
		reg = give2get.NewMetrics()
	}

	var tr *give2get.Trace
	traceStart := time.Now()
	if *tracePath != "" {
		tr, err = give2get.OpenTrace(*tracePath)
		if err != nil {
			return err
		}
	} else {
		tr, err = give2get.GenerateTrace(give2get.Preset(*preset), *seed)
		if err != nil {
			return err
		}
	}
	if reg != nil {
		d := time.Since(traceStart)
		reg.Spans.Note(obs.SpanTraceLoad, d, d)
	}

	cfg := give2get.SimulationConfig{
		Trace:           tr,
		Protocol:        give2get.Protocol(*proto),
		TTL:             *ttl,
		Seed:            *seed,
		WindowStart:     *window,
		MessageInterval: *interval,
		OnlyOutsiders:   *outsiders,
		RealCrypto:      *realCrypt,
		Registry:        reg,
		Context:         ctx,
	}
	if *deviants > 0 {
		cfg.Deviation = give2get.Deviation(*deviation)
		n := tr.Nodes()
		for i := 0; i < *deviants && i < n; i++ {
			// Deterministic spread across the population, for any seed sign.
			cfg.Deviants = append(cfg.Deviants, ((i*7+int(*seed))%n+n)%n)
		}
		cfg.Deviants = dedupe(cfg.Deviants)
	}

	if *tracelog != "" {
		f, ferr := os.Create(*tracelog)
		if ferr != nil {
			return ferr
		}
		sink := give2get.NewJSONTraceSink(f, give2get.TraceDebug)
		cfg.Sink = sink
		defer func() {
			if werr := sink.Err(); err == nil {
				err = werr
			}
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
	}
	if *audit {
		cfg.Audit = give2get.AuditConfig{Enabled: true}
	}

	// A single run is a sweep of one repeat: one path runs, journals and
	// resumes every invocation.
	sweep, err := give2get.RunSweep(give2get.SweepConfig{
		SimulationConfig: cfg, Repeats: *repeats, Jobs: *jobs,
		CheckpointDir: *ckptDir, Resume: *resume,
	})
	if errors.Is(err, give2get.ErrInterrupted) && *ckptDir != "" {
		fmt.Fprintf(stderr, "g2gsim: interrupted; completed runs journaled under %s (continue with -resume)\n", *ckptDir)
	}
	if *repeats > 1 {
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "trace:       %s (%d nodes, %d contacts)\n", tr.Name(), tr.Nodes(), tr.Contacts())
		fmt.Fprintf(stdout, "protocol:    %s  ttl=%v  seeds=%d..%d\n", *proto, *ttl, *seed, *seed+int64(*repeats)-1)
		fmt.Fprintf(stdout, "success:     %.1f%% mean over %d repeats\n", sweep.SuccessRate, *repeats)
		fmt.Fprintf(stdout, "delay:       %v mean\n", sweep.MeanDelay.Round(time.Second))
		fmt.Fprintf(stdout, "cost:        %.2f replicas/msg total, %.2f at delivery\n",
			sweep.Cost, sweep.CostToDelivery)
		if *deviants > 0 {
			fmt.Fprintf(stdout, "deviants:    %d %ss (outsiders=%v)\n", len(cfg.Deviants), *deviation, *outsiders)
			fmt.Fprintf(stdout, "detection:   %.1f%% exposed mean\n", sweep.DetectionRate)
		}
		if *audit {
			// RunSweep fails on any violation, so reaching this point
			// means every repeat audited clean.
			fmt.Fprintf(stdout, "audit: ok (%d runs clean)\n", len(sweep.Runs))
		}
	} else {
		// A run that finished prints its report even when its audit
		// failed.
		if sweep == nil || sweep.Runs[0] == nil {
			return err
		}
		res := sweep.Runs[0]
		fmt.Fprintf(stdout, "trace:       %s (%d nodes, %d contacts)\n", tr.Name(), tr.Nodes(), tr.Contacts())
		fmt.Fprintf(stdout, "protocol:    %s  ttl=%v  seed=%d\n", *proto, *ttl, *seed)
		fmt.Fprintf(stdout, "messages:    %d generated, %d delivered (%.1f%%)\n",
			res.Generated, res.Delivered, res.SuccessRate)
		fmt.Fprintf(stdout, "delay:       %v mean\n", res.MeanDelay.Round(time.Second))
		fmt.Fprintf(stdout, "cost:        %.2f replicas/msg total, %.2f at delivery\n",
			res.Cost, res.CostToDelivery)
		if *deviants > 0 {
			fmt.Fprintf(stdout, "deviants:    %d %ss (outsiders=%v)\n", len(cfg.Deviants), *deviation, *outsiders)
			fmt.Fprintf(stdout, "detection:   %.1f%% exposed, mean %v after TTL, %d false accusations\n",
				res.DetectionRate, res.MeanDetectionTime.Round(time.Second), res.FalseAccusations)
		}
		if rep := res.AuditReport; rep != nil {
			fmt.Fprintln(stdout, rep)
			for _, v := range rep.Violations {
				fmt.Fprintln(stderr, "  ", v)
			}
		}
		if err != nil {
			return err
		}
	}
	if *telemetry != "" {
		// The registry holds every run of the invocation and the trace
		// load.
		return writeTelemetry(stdout, *telemetry, reg.Snapshot())
	}
	return nil
}

// writeTelemetry writes the JSON run report to path and notes it on stdout.
func writeTelemetry(stdout io.Writer, path string, tel *give2get.Telemetry) error {
	b, err := json.MarshalIndent(tel, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "telemetry:   %d events (%.0f events/s) -> %s\n",
		tel.Sim.EventsFired, tel.EventsPerSec(), path)
	return nil
}

func dedupe(in []int) []int {
	seen := make(map[int]struct{}, len(in))
	out := in[:0]
	for _, v := range in {
		if _, ok := seen[v]; ok {
			continue
		}
		seen[v] = struct{}{}
		out = append(out, v)
	}
	return out
}
