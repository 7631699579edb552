package main

import (
	"encoding/json"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the benchmark must agree with.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestSpecNamesTheWorkloads(t *testing.T) {
	spec := loadSpec(t)
	var got, want []string
	for _, w := range spec.Workloads {
		got = append(got, w.Name)
	}
	for _, w := range workloads {
		pin, err := pinned(w.name)
		if err != nil || strings.TrimSpace(pin) == "" {
			t.Errorf("%s: no pinned output for the default seed (%v)", w.name, err)
		}
		if w.name != "large-stream" { // too noisy to bound; see its definition
			want = append(want, w.name)
		}
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", got, want)
	}
}

// checkMetrics requires the printed metrics to be exactly the spec's, with
// the spec's units.
func checkMetrics(t *testing.T, got []metric, want []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	units := make(map[string]string, len(got))
	for _, m := range got {
		if _, dup := units[m.name]; dup {
			t.Errorf("metric %s printed twice", m.name)
		}
		units[m.name] = m.unit
	}
	for _, w := range want {
		u, ok := units[w.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", w.Name)
		case u != w.Unit:
			t.Errorf("metric %s: unit %s, spec says %s", w.Name, u, w.Unit)
		}
		delete(units, w.Name)
	}
	var extra []string
	for n := range units {
		extra = append(extra, n)
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		t.Errorf("metrics not in BENCHMARK.json: %v", extra)
	}
}

// TestTinyWorkloads runs every workload at unit-test scale through the
// same code path as a benchmark run, in both modes: every run must pass
// its audit, the traced ledger must have no layer that counted work but
// timed none, and the metrics must be exactly those BENCHMARK.json names.
func TestTinyWorkloads(t *testing.T) {
	spec := loadSpec(t)
	scratch := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{
				workload: w,
				seed:     DefaultSeed,
				seconds:  time.Millisecond,
				traced:   traced,
				scratch:  scratch,
				jobs:     2,
				tiny:     true,
			}
			procs := runtime.GOMAXPROCS(0)
			res, err := runBench(cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if got := runtime.GOMAXPROCS(0); got != procs {
				t.Errorf("%s: GOMAXPROCS left at %d, was %d", w.name, got, procs)
			}
			if w.procs > 0 && res.env.GOMAXPROCS != w.procs {
				t.Errorf("%s: ran under GOMAXPROCS %d, want %d", w.name, res.env.GOMAXPROCS, w.procs)
			}
			if !res.correct() || res.attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d problems=%v",
					w.name, traced, res.correct(), res.attempted, res.failed, res.problems)
			}
			if traced {
				checkMetrics(t, res.metrics, spec.PerLayer)
			} else {
				checkMetrics(t, res.metrics, spec.EndToEnd)
			}
			for _, m := range res.metrics {
				if !traced && m.value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.name, m.value)
				}
			}
		}
	}
	entries, err := os.ReadDir(scratch + "/work")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("scratch files left behind: %d", len(entries))
	}
}
