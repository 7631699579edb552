package mobility

import (
	"path/filepath"
	"testing"

	"give2get/internal/sim"
	"give2get/internal/trace"
)

func largeTestConfig() LargeConfig {
	return LargeConfig{
		Name:              "large-test",
		Communities:       6,
		CommunitySize:     5,
		AcrossDegree:      2,
		Duration:          6 * sim.Hour,
		Within:            PairParams{ShortGap: 10 * sim.Minute, LongGap: 90 * sim.Minute, BurstProb: 0.6},
		Across:            PairParams{ShortGap: 30 * sim.Minute, LongGap: 4 * sim.Hour, BurstProb: 0.3},
		ContactMean:       2 * sim.Minute,
		SociabilitySpread: 0.4,
	}
}

func TestGenerateLargeDeterministic(t *testing.T) {
	collect := func() []trace.Contact {
		var out []trace.Contact
		if err := GenerateLarge(largeTestConfig(), 7, func(c trace.Contact) error {
			out = append(out, c)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := collect(), collect()
	if len(a) == 0 {
		t.Fatal("no contacts generated")
	}
	if len(a) != len(b) {
		t.Fatalf("runs differ in size: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("contact %d differs between identical runs", i)
		}
	}
}

func TestGenerateLargeStructure(t *testing.T) {
	cfg := largeTestConfig()
	intra, inter := 0, 0
	if err := GenerateLarge(cfg, 7, func(c trace.Contact) error {
		if c.End <= c.Start {
			t.Fatalf("empty interval %+v", c)
		}
		if int(c.A) >= cfg.Nodes() || int(c.B) >= cfg.Nodes() {
			t.Fatalf("node out of range: %+v", c)
		}
		if int(c.A)/cfg.CommunitySize == int(c.B)/cfg.CommunitySize {
			intra++
		} else {
			inter++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Community structure: intra-community meetings must dominate, but the
	// sparse bridges must exist.
	if intra == 0 || inter == 0 {
		t.Fatalf("intra=%d inter=%d, want both positive", intra, inter)
	}
	if intra <= inter {
		t.Errorf("intra=%d <= inter=%d: communities not denser than bridges", intra, inter)
	}
}

// TestGenerateLargeThroughExtWriter is the large-stream benchmark
// workload's setup in miniature: unsorted generator output through the
// external sort into a binary file that streams back sorted and
// engine-ready.
func TestGenerateLargeThroughExtWriter(t *testing.T) {
	cfg := largeTestConfig()
	path := filepath.Join(t.TempDir(), "large"+trace.BinaryExt)
	w := trace.NewExtWriter(path, cfg.Name, cfg.Nodes(), trace.ExtOptions{RunContacts: 512})
	added := 0
	err := GenerateLarge(cfg, 7, func(c trace.Contact) error {
		added++
		return w.Add(c)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	src, err := trace.OpenBinary(path)
	if err != nil {
		t.Fatal(err)
	}
	if src.Nodes() != cfg.Nodes() {
		t.Errorf("nodes = %d, want %d", src.Nodes(), cfg.Nodes())
	}
	if src.Len() != added {
		t.Errorf("file count = %d, want %d", src.Len(), added)
	}
	// Materialize re-validates the whole stream (ordering, bounds).
	if _, err := trace.Materialize(src); err != nil {
		t.Fatal(err)
	}
}
