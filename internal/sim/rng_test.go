package sim

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced diverging streams")
		}
	}
}

func TestStreamIndependence(t *testing.T) {
	// Two labelled streams derived from the same seed must differ from each
	// other and be reproducible.
	m1 := StreamFromSeed(7, "mobility")
	w1 := StreamFromSeed(7, "workload")
	m2 := StreamFromSeed(7, "mobility")

	same, diff := 0, 0
	for i := 0; i < 64; i++ {
		mv := m1.Int63()
		if mv == m2.Int63() {
			same++
		}
		if mv == w1.Int63() {
			diff++
		}
	}
	if same != 64 {
		t.Errorf("identical labels reproduced %d/64 values", same)
	}
	if diff > 2 {
		t.Errorf("distinct labels collided on %d/64 values", diff)
	}
}

func TestDeriveSeedNeverZero(t *testing.T) {
	property := func(seed int64, label string) bool {
		return deriveSeed(seed, label) > 0
	}
	if err := quick.Check(property, nil); err != nil {
		t.Error(err)
	}
}

func TestExpMean(t *testing.T) {
	g := NewRNG(1)
	const n = 20000
	mean := 10 * Minute
	var total float64
	for i := 0; i < n; i++ {
		total += SecondsOf(g.Exp(mean))
	}
	got := total / n
	want := SecondsOf(mean)
	if math.Abs(got-want)/want > 0.05 {
		t.Errorf("Exp mean = %.1fs, want ~%.1fs", got, want)
	}
}

func TestExpNonPositiveMean(t *testing.T) {
	g := NewRNG(1)
	if got := g.Exp(0); got != 0 {
		t.Errorf("Exp(0) = %v, want 0", got)
	}
	if got := g.Exp(-Second); got != 0 {
		t.Errorf("Exp(-1s) = %v, want 0", got)
	}
}

func TestBoolProbability(t *testing.T) {
	g := NewRNG(3)
	const n = 20000
	hits := 0
	for i := 0; i < n; i++ {
		if g.Bool(0.3) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-0.3) > 0.02 {
		t.Errorf("Bool(0.3) frequency = %.3f", got)
	}
}

func TestPermIsPermutation(t *testing.T) {
	g := NewRNG(11)
	p := g.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("Perm produced invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

// TestRNGMatchesStdlib pins the RNG to the plain stdlib generator: every
// method must draw the same values in the same order as
// rand.New(rand.NewSource(seed)), Bytes included.
func TestRNGMatchesStdlib(t *testing.T) {
	g := NewRNG(1234)
	r := rand.New(rand.NewSource(1234))
	got, want := make([]byte, 13), make([]byte, 13)
	for i := 0; i < 500; i++ {
		switch i % 6 {
		case 0:
			if a, b := g.Int63(), r.Int63(); a != b {
				t.Fatalf("round %d: Int63 %d != stdlib %d", i, a, b)
			}
		case 1:
			if a, b := g.Float64(), r.Float64(); a != b {
				t.Fatalf("round %d: Float64 %v != stdlib %v", i, a, b)
			}
		case 2:
			if a, b := g.Intn(97), r.Intn(97); a != b {
				t.Fatalf("round %d: Intn %d != stdlib %d", i, a, b)
			}
		case 3:
			if a, b := g.Exp(Minute), Time(float64(Minute)*r.ExpFloat64()); a != b {
				t.Fatalf("round %d: Exp %v != stdlib %v", i, a, b)
			}
		case 4:
			n := 1 + i%len(got)
			g.Bytes(got[:n])
			r.Read(want[:n])
			if !bytes.Equal(got[:n], want[:n]) {
				t.Fatalf("round %d: Bytes % x != stdlib % x", i, got[:n], want[:n])
			}
		case 5:
			a, b := g.Perm(9), r.Perm(9)
			for k := range a {
				if a[k] != b[k] {
					t.Fatalf("round %d: Perm %v != stdlib %v", i, a, b)
				}
			}
		}
	}
}
