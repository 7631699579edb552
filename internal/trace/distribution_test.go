package trace

import (
	"testing"

	"give2get/internal/sim"
)

func TestInterContactCCDF(t *testing.T) {
	// Pair (0,1) meets three times with gaps of 10m and 100m.
	tr, err := New("d", 2, []Contact{
		c(0, 1, 0, sim.Minute),
		c(0, 1, 11*sim.Minute, 12*sim.Minute),
		c(0, 1, 112*sim.Minute, 113*sim.Minute),
	})
	if err != nil {
		t.Fatal(err)
	}
	ccdf := InterContactCCDF(tr, 10)
	if len(ccdf) != 10 {
		t.Fatalf("points = %d", len(ccdf))
	}
	if ccdf[0].Fraction != 1 {
		t.Errorf("CCDF at 1s = %v, want 1 (all gaps exceed a second)", ccdf[0].Fraction)
	}
	last := ccdf[len(ccdf)-1]
	if last.Fraction != 0 {
		t.Errorf("CCDF at max = %v, want 0", last.Fraction)
	}
	// Monotone non-increasing.
	for i := 1; i < len(ccdf); i++ {
		if ccdf[i].Fraction > ccdf[i-1].Fraction {
			t.Fatalf("CCDF not monotone at %d: %v", i, ccdf)
		}
		if ccdf[i].T <= ccdf[i-1].T {
			t.Fatalf("abscissae not increasing at %d", i)
		}
	}
}

func TestInterContactCCDFDegenerate(t *testing.T) {
	tr, err := New("d", 2, []Contact{c(0, 1, 0, sim.Minute)})
	if err != nil {
		t.Fatal(err)
	}
	if got := InterContactCCDF(tr, 5); got != nil {
		t.Errorf("single contact yielded CCDF %v", got)
	}
	tr2, err := New("d", 2, []Contact{
		c(0, 1, 0, sim.Minute),
		c(0, 1, 10*sim.Minute, 11*sim.Minute),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := InterContactCCDF(tr2, 0); got != nil {
		t.Errorf("zero points yielded %v", got)
	}
}
