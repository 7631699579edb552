package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"give2get"
)

func TestRunStats(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-preset", "infocom05", "-stats"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"nodes:", "contacts:", "communities:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stats output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunWritesParseableTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.txt")
	var out, errOut bytes.Buffer
	if err := run([]string{"-preset", "cambridge06", "-seed", "7", "-out", path}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := give2get.ParseTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Nodes() != 36 {
		t.Errorf("nodes = %d, want 36", tr.Nodes())
	}
	if tr.Contacts() == 0 {
		t.Error("no contacts written")
	}
}

func TestRunUnknownPreset(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-preset", "bogus"}, &out, &errOut); err == nil {
		t.Error("unknown preset accepted")
	}
}

func TestRunBadFlag(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-definitely-not-a-flag"}, &out, &errOut); err == nil {
		t.Error("bad flag accepted")
	}
}

// TestRunWritesBinaryByExtension writes one preset twice, as text and as a
// .g2gt by extension, and requires the binary file read back through
// OpenTrace to serialize to the text file byte for byte: the format's
// lossless contract on a paper-scale trace.
func TestRunWritesBinaryByExtension(t *testing.T) {
	dir := t.TempDir()
	textPath, binPath := filepath.Join(dir, "trace.txt"), filepath.Join(dir, "trace.g2gt")
	for _, path := range []string{textPath, binPath} {
		var out, errOut bytes.Buffer
		if err := run([]string{"-preset", "infocom05", "-seed", "7", "-out", path}, &out, &errOut); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := give2get.OpenTrace(binPath)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Nodes() != 41 {
		t.Errorf("nodes = %d, want 41", tr.Nodes())
	}
	if tr.Contacts() <= 0 {
		t.Errorf("contacts = %d", tr.Contacts())
	}
	var back bytes.Buffer
	if err := tr.Write(&back); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(textPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Bytes(), want) {
		t.Fatalf("text -> .g2gt -> text differs: %d bytes back, %d written", back.Len(), len(want))
	}
}
