package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestPhasesTable(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "telemetry.json")
	snap := `{
  "schema": "g2g.telemetry/1",
  "spans": [
    {"name": "session", "count": 10, "wall_ns": 5000000, "self_ns": 3000000, "mean_ns": 500000},
    {"name": "crypto_hmac", "count": 40, "wall_ns": 2000000, "self_ns": 2000000, "mean_ns": 50000}
  ]
}`
	if err := os.WriteFile(path, []byte(snap), 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := runPhases(&sb, path); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	for _, want := range []string{"session", "crypto_hmac", "60.0%", "40.0%", "5ms", "50µs"} {
		if !strings.Contains(got, want) {
			t.Errorf("phase table missing %q:\n%s", want, got)
		}
	}
	// The header row orders the columns the docs promise.
	if !strings.Contains(got, "phase") || !strings.Contains(got, "self%") {
		t.Errorf("phase table header malformed:\n%s", got)
	}
}

// TestPhasesErrors: a snapshot without spans (e.g. from a telemetry-disabled
// run) is an explicit error, not an empty table.
func TestPhasesErrors(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte(`{"schema":"g2g.telemetry/1"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runPhases(&strings.Builder{}, empty); err == nil || !strings.Contains(err.Error(), "no span records") {
		t.Fatalf("spanless snapshot accepted: %v", err)
	}
	if err := runPhases(&strings.Builder{}, filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}
