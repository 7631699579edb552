package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files with the current output")

// checkGolden compares got against the committed golden file, failing loudly
// on drift; -update rewrites the goldens instead.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with `go test ./cmd/... -update`): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output drifted from %s — if intended, regenerate with `go test ./cmd/... -update`\n--- got ---\n%s--- want ---\n%s",
			path, got, want)
	}
}

// TestGolden pins the rendered experiment tables byte for byte at the tiny
// workload. The tables contain only virtual-time-derived numbers, so any
// drift is a real change in simulation behavior.
func TestGolden(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		// secV runs with the auditor attached: the golden doubles as an
		// audited-experiment regression (violations would fail the run).
		{name: "secV-tiny-audit", args: []string{"-experiment", "secV", "-tiny", "-audit"}},
		{name: "memory-tiny-csv", args: []string{"-experiment", "memory", "-tiny", "-format", "csv"}},
		// payoff prices each node's usage counters in §IV-C's energy model,
		// so it pins the verification charges that no audit reconciles.
		{name: "payoff-tiny-audit", args: []string{"-experiment", "payoff", "-tiny", "-audit"}},
		// fig3 and fig5 run vanilla Epidemic and Delegation (last contact)
		// with droppers, liars and their with-outsiders variants, the only
		// goldens of the plain protocols under deviants.
		{name: "fig3-tiny-audit", args: []string{"-experiment", "fig3", "-tiny", "-audit"}},
		{name: "fig5-tiny-audit", args: []string{"-experiment", "fig5", "-tiny", "-audit"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errOut bytes.Buffer
			if err := run(tc.args, &out, &errOut); err != nil {
				t.Fatalf("%v\nstderr:\n%s", err, errOut.String())
			}
			checkGolden(t, tc.name, out.Bytes())
		})
	}
}
