package sim

import (
	"hash/fnv"
	"math"
	"math/rand"
)

// RNG wraps a deterministic random source with the distributions the
// simulations need. Each subsystem derives its own named stream from the
// master seed so that, for example, adding an extra workload draw never
// perturbs the mobility model of the same run.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a stream seeded directly with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// StreamFromSeed derives a labelled sub-stream directly from a master seed
// without consuming state from any parent stream.
func StreamFromSeed(seed int64, label string) *RNG {
	return NewRNG(deriveSeed(seed, label))
}

func deriveSeed(seed int64, label string) int64 {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(uint64(seed) >> (8 * i))
	}
	_, _ = h.Write(buf[:])
	_, _ = h.Write([]byte(label))
	derived := int64(h.Sum64() & math.MaxInt64)
	if derived == 0 {
		derived = 1
	}
	return derived
}

// Float64 returns a uniform value in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform value in [0, n). It panics if n <= 0, matching
// math/rand semantics.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a uniform non-negative 63-bit integer.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// Perm returns a uniform pseudo-random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool { return g.r.Float64() < p }

// Exp returns an exponentially distributed duration with the given mean.
// A non-positive mean yields zero.
func (g *RNG) Exp(mean Time) Time {
	if mean <= 0 {
		return 0
	}
	return Time(float64(mean) * g.r.ExpFloat64())
}

// Bytes fills b with pseudo-random bytes (math/rand.Rand.Read, whose
// partial-draw buffer lives in the stream).
func (g *RNG) Bytes(b []byte) { g.r.Read(b) }
