// Command benchjson renders the per-phase span breakdown of a
// g2g.telemetry/1 snapshot as a table, e.g. the one `make bench-smoke`
// collects via G2G_BENCH_TELEMETRY or a run's `-telemetry` report:
//
//	go run ./cmd/benchjson -phases bench_telemetry.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

func main() {
	phases := flag.String("phases", "", "render the per-phase span table of this telemetry snapshot")
	flag.Parse()
	if *phases == "" {
		fmt.Fprintln(os.Stderr, "benchjson: -phases is required")
		os.Exit(2)
	}
	if err := runPhases(os.Stdout, *phases); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(2)
	}
}

// phaseSnapshot is the slice of a g2g.telemetry/1 snapshot the phase table
// needs: the schema marker and the span records.
type phaseSnapshot struct {
	Schema string `json:"schema"`
	Spans  []struct {
		Name   string `json:"name"`
		Count  int64  `json:"count"`
		WallNS int64  `json:"wall_ns"`
		SelfNS int64  `json:"self_ns"`
		MeanNS int64  `json:"mean_ns"`
	} `json:"spans"`
}

// runPhases renders the per-phase span breakdown of a telemetry snapshot as a
// table: one row per phase in the snapshot's (declaration) order, with self
// time as a share of the total self time — the column that says where the
// wall clock actually went, since self time excludes nested phases and so
// sums without double counting.
func runPhases(w io.Writer, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var snap phaseSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if len(snap.Spans) == 0 {
		return fmt.Errorf("%s: no span records (schema %q) — was the run telemetry-enabled?", path, snap.Schema)
	}
	var totalSelf int64
	for _, sp := range snap.Spans {
		totalSelf += sp.SelfNS
	}
	fmt.Fprintf(w, "%-18s %12s %14s %14s %12s %7s\n",
		"phase", "count", "wall", "self", "mean", "self%")
	for _, sp := range snap.Spans {
		share := 0.0
		if totalSelf > 0 {
			share = float64(sp.SelfNS) / float64(totalSelf) * 100
		}
		fmt.Fprintf(w, "%-18s %12d %14s %14s %12s %6.1f%%\n",
			sp.Name, sp.Count,
			time.Duration(sp.WallNS).Round(time.Microsecond),
			time.Duration(sp.SelfNS).Round(time.Microsecond),
			time.Duration(sp.MeanNS).Round(time.Nanosecond),
			share)
	}
	return nil
}
