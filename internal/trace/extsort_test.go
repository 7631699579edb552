package trace

import (
	"os"
	"path/filepath"
	"testing"
)

// assertDirEmpty fails if dir holds anything — leftover run files, merge
// temps, or a torn target.
func assertDirEmpty(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("leftover file after failed Close: %s", e.Name())
	}
}

// TestExtWriterFailureRemovesTemps pins the crash hygiene of the external
// sort: when the merge or the final write fails, Close must leave nothing
// behind — no spill-run temps, no merge temp, no torn target.
func TestExtWriterFailureRemovesTemps(t *testing.T) {
	t.Run("final write fails", func(t *testing.T) {
		tmp := t.TempDir()
		// The target's directory does not exist, so creating the merge temp
		// (and hence the final file) must fail.
		dest := filepath.Join(t.TempDir(), "missing", "out"+BinaryExt)
		tr := randomTrace(t, 11, 8, 400)
		w := NewExtWriter(dest, tr.Name(), tr.Nodes(), ExtOptions{RunContacts: 100, TmpDir: tmp})
		for _, c := range tr.Contacts() {
			if err := w.Add(c); err != nil {
				t.Fatal(err)
			}
		}
		if len(w.runs) < 2 {
			t.Fatalf("expected multiple spilled runs before Close, got %d", len(w.runs))
		}
		if err := w.Close(); err == nil {
			t.Fatal("Close into a missing directory succeeded")
		}
		assertDirEmpty(t, tmp)
		if _, err := os.Stat(dest); !os.IsNotExist(err) {
			t.Errorf("target exists after failed Close: %v", err)
		}
	})

	t.Run("merge fails", func(t *testing.T) {
		dir := t.TempDir()
		dest := filepath.Join(dir, "out"+BinaryExt)
		tr := randomTrace(t, 12, 8, 400)
		w := NewExtWriter(dest, tr.Name(), tr.Nodes(), ExtOptions{RunContacts: 100, TmpDir: dir})
		for _, c := range tr.Contacts() {
			if err := w.Add(c); err != nil {
				t.Fatal(err)
			}
		}
		if len(w.runs) < 2 {
			t.Fatalf("expected multiple spilled runs before Close, got %d", len(w.runs))
		}
		// Tear a run mid-varint (a lone continuation byte): the k-way merge
		// must surface the decode error instead of writing a short trace.
		if err := os.WriteFile(w.runs[0], []byte{0x80}, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err == nil {
			t.Fatal("Close over a torn run file succeeded")
		}
		assertDirEmpty(t, dir)
	})
}
