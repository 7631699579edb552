package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunPreset(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-preset", "cambridge06"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "communities") {
		t.Errorf("output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "community 0") {
		t.Errorf("no community listing:\n%s", out.String())
	}
}

func TestRunTraceFile(t *testing.T) {
	// A trace with two strong triangles and one weak bridge.
	const input = `# nodes=6 name=two-triangles
0 1 0 60
1 2 120 180
0 2 240 300
0 1 360 420
1 2 480 540
0 2 600 660
3 4 0 60
4 5 120 180
3 5 240 300
3 4 360 420
4 5 480 540
3 5 600 660
2 3 700 760
`
	path := filepath.Join(t.TempDir(), "trace.txt")
	if err := os.WriteFile(path, []byte(input), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if err := run([]string{"-trace", path}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "2 communities") {
		t.Errorf("expected 2 communities:\n%s", out.String())
	}
}

func TestRunMissingTraceFile(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-trace", "/does/not/exist"}, &out, &errOut); err == nil {
		t.Error("missing file accepted")
	}
}

func TestRunUnknownPreset(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-preset", "bogus"}, &out, &errOut); err == nil {
		t.Error("unknown preset accepted")
	}
}
