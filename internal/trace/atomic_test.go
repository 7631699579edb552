package trace

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// dirNames lists the entries of dir.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names
}

// TestWriteFileAtomicFailures: a failed write or a failed rename returns the
// error, leaves what was at the path untouched and leaves no temp file.
func TestWriteFileAtomicFailures(t *testing.T) {
	t.Run("write callback fails", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, "out.bin")
		if err := os.WriteFile(path, []byte("previous"), 0o644); err != nil {
			t.Fatal(err)
		}
		boom := errors.New("boom")
		err := WriteFileAtomic(path, func(w io.Writer) error {
			if _, err := io.WriteString(w, "half a fi"); err != nil {
				return err
			}
			return boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v, want the callback's error", err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != "previous" {
			t.Fatalf("previous file now %q (err %v)", got, err)
		}
		if names := dirNames(t, dir); len(names) != 1 || names[0] != "out.bin" {
			t.Fatalf("directory holds %v, want only out.bin", names)
		}
	})
	t.Run("rename target is a directory", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, "out.bin")
		if err := os.Mkdir(path, 0o755); err != nil {
			t.Fatal(err)
		}
		inner := filepath.Join(path, "keep")
		if err := os.WriteFile(inner, []byte("previous"), 0o644); err != nil {
			t.Fatal(err)
		}
		err := WriteFileAtomic(path, func(w io.Writer) error {
			_, err := io.WriteString(w, "new content")
			return err
		})
		if err == nil {
			t.Fatal("publishing over a directory succeeded")
		}
		if st, err := os.Stat(path); err != nil || !st.IsDir() {
			t.Fatalf("target directory gone (err %v)", err)
		}
		if got, err := os.ReadFile(inner); err != nil || string(got) != "previous" {
			t.Fatalf("directory content now %q (err %v)", got, err)
		}
		if names := dirNames(t, dir); len(names) != 1 || names[0] != "out.bin" {
			t.Fatalf("directory holds %v, want only out.bin", names)
		}
	})
}
