package trace

import (
	"math"
	"sort"

	"give2get/internal/sim"
)

// The pocket-switched-network literature characterizes traces by the
// distribution of inter-contact times (Chaintreau et al.: approximately
// power law with an exponential cut-off). These helpers compute the
// empirical distributions so synthetic traces can be checked against the
// shape the Give2Get mechanisms assume.

// CCDFPoint is one point of a complementary cumulative distribution
// function: the fraction of samples strictly greater than T.
type CCDFPoint struct {
	T        sim.Time
	Fraction float64
}

// InterContactCCDF returns the CCDF of pairwise inter-contact gaps at
// `points` log-spaced abscissae between one second and the maximum observed
// gap. It returns nil when no pair met twice.
func InterContactCCDF(t *Trace, points int) []CCDFPoint {
	gaps := interContactGaps(t)
	if len(gaps) == 0 || points <= 0 {
		return nil
	}
	sort.Slice(gaps, func(i, j int) bool { return gaps[i] < gaps[j] })
	maxGap := gaps[len(gaps)-1]
	if maxGap <= sim.Second {
		maxGap = 2 * sim.Second
	}

	out := make([]CCDFPoint, 0, points)
	logMin := math.Log(float64(sim.Second))
	logMax := math.Log(float64(maxGap))
	for i := 0; i < points; i++ {
		frac := float64(i) / float64(points-1)
		if points == 1 {
			frac = 0
		}
		x := sim.Time(math.Exp(logMin + frac*(logMax-logMin)))
		if i == points-1 {
			// Pin the last abscissa to the exact maximum so the CCDF
			// reaches zero despite floating-point rounding.
			x = maxGap
		}
		// Count of gaps strictly greater than x.
		idx := sort.Search(len(gaps), func(j int) bool { return gaps[j] > x })
		out = append(out, CCDFPoint{
			T:        x,
			Fraction: float64(len(gaps)-idx) / float64(len(gaps)),
		})
	}
	return out
}

func interContactGaps(t *Trace) []sim.Time {
	perPair := make(map[PairKey][]Contact)
	for _, c := range t.Contacts() {
		k := MakePairKey(c.A, c.B)
		perPair[k] = append(perPair[k], c)
	}
	var gaps []sim.Time
	for _, cs := range perPair {
		for i := 1; i < len(cs); i++ {
			gap := cs[i].Start - cs[i-1].End
			if gap > 0 {
				gaps = append(gaps, gap)
			}
		}
	}
	return gaps
}
