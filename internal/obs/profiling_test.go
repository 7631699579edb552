package obs

import (
	"os"
	"path/filepath"
	"testing"
)

func TestProfilerZeroValue(t *testing.T) {
	var p Profiler
	stop, err := p.Start()
	if err != nil {
		t.Fatalf("zero-value Start: %v", err)
	}
	if err := stop(); err != nil {
		t.Fatalf("zero-value stop: %v", err)
	}
}

func TestProfilerProfiles(t *testing.T) {
	dir := t.TempDir()
	p := Profiler{
		CPUProfile: filepath.Join(dir, "cpu.out"),
		MemProfile: filepath.Join(dir, "mem.out"),
	}
	stop, err := p.Start()
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	// Burn a little CPU so the profile has something to record.
	x := 0
	for i := 0; i < 1_000_000; i++ {
		x += i
	}
	_ = x
	if err := stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	for _, f := range []string{p.CPUProfile, p.MemProfile} {
		st, err := os.Stat(f)
		if err != nil {
			t.Fatalf("profile %s: %v", f, err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", f)
		}
	}
}
