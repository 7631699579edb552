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

// TestGolden pins the CLI's observable output byte for byte. Every field
// printed here is virtual-time deterministic (wall-clock metrics never reach
// stdout), so any diff is a behavior change in the stack below, not noise.
// The audited cases pin the canonical event-stream digest of the streaming
// scheduler; internal/engine's TestAuditDifferentialScheduling separately
// proves that digest identical to the legacy pre-scheduled path, so together
// they anchor both schedulers to the committed goldens.
func TestGolden(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{
			// The generated preset exercises the full honest G2G pipeline
			// with the auditor attached; the audit line pins the canonical
			// event-stream digest.
			name: "preset-g2g-epidemic-audit",
			args: []string{"-preset", "infocom05", "-protocol", "g2g-epidemic",
				"-ttl", "10m", "-interval", "60s", "-audit"},
		},
		{
			// The committed CRAWDAD file exercises the parser path.
			name: "trace-epidemic",
			args: []string{"-trace", "testdata/contacts.txt", "-protocol", "epidemic",
				"-ttl", "20m", "-interval", "2m"},
		},
		{
			name: "trace-droppers-audit",
			args: []string{"-trace", "testdata/contacts.txt", "-protocol", "g2g-epidemic",
				"-ttl", "20m", "-interval", "2m", "-deviants", "2", "-deviation", "dropper", "-audit"},
		},
		{
			name: "sweep-delegation-audit",
			args: []string{"-preset", "cambridge06", "-protocol", "delegation-frequency",
				"-ttl", "10m", "-interval", "2m", "-repeats", "2", "-jobs", "2", "-audit"},
		},
		{
			// G2G Delegation with cheaters: the sender's chain audit of
			// the declared forwarding qualities exposes them.
			name: "preset-g2g-delegation-cheaters-audit",
			args: []string{"-preset", "infocom05", "-protocol", "g2g-delegation-frequency",
				"-ttl", "30m", "-interval", "60s", "-deviants", "6", "-deviation", "cheater", "-audit"},
		},
		{
			// G2G Delegation with liars: the destination's audit of the
			// declarations a copy carries exposes them.
			name: "preset-g2g-delegation-liars-audit",
			args: []string{"-preset", "infocom05", "-protocol", "g2g-delegation-last-contact",
				"-ttl", "30m", "-interval", "60s", "-deviants", "6", "-deviation", "liar", "-audit"},
		},
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
