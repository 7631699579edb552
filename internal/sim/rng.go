package sim

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
)

// RNG wraps a deterministic random source with the distributions the
// simulations need. Each subsystem derives its own named stream from the
// master seed so that, for example, adding an extra workload draw never
// perturbs the mobility model of the same run.
//
// The source is wrapped in a draw counter, so a stream's exact position can
// be captured with State and re-established with Restore — the basis of the
// engine's checkpoint format. Counting changes neither the values drawn nor
// how many draws any method consumes: every sequence is byte-identical to a
// plain rand.New(rand.NewSource(seed)).
type RNG struct {
	r   *rand.Rand
	src *countingSource
	// readVal/readPos buffer partial Int63 draws for Bytes, replicating
	// math/rand.Rand.Read so the buffered remainder is part of State.
	readVal int64
	readPos int8
}

// countingSource wraps the stdlib source and counts state advances. For the
// stdlib generator one Int63 and one Uint64 each advance the state exactly
// once, so the count alone pinpoints the stream position.
type countingSource struct {
	src   rand.Source64
	draws uint64
}

func (c *countingSource) Int63() int64 {
	c.draws++
	return c.src.Int63()
}

func (c *countingSource) Uint64() uint64 {
	c.draws++
	return c.src.Uint64()
}

func (c *countingSource) Seed(seed int64) {
	c.src.Seed(seed)
	c.draws = 0
}

// NewRNG returns a stream seeded directly with seed.
func NewRNG(seed int64) *RNG {
	src := &countingSource{src: rand.NewSource(seed).(rand.Source64)}
	return &RNG{r: rand.New(src), src: src}
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

// RNGState is a stream position: how many source draws have happened plus
// the partial Int63 remainder buffered by Bytes. It is a plain value —
// serialize it with any encoder and hand it to Restore on a stream freshly
// built from the same seed.
type RNGState struct {
	Draws   uint64
	ReadVal int64
	ReadPos int8
}

// State captures the stream's exact position.
func (g *RNG) State() RNGState {
	return RNGState{Draws: g.src.draws, ReadVal: g.readVal, ReadPos: g.readPos}
}

// ErrRNGStatePast reports a Restore target behind the stream's position.
var ErrRNGStatePast = errors.New("sim: rng restore target is in the past")

// Restore fast-forwards the stream to a previously captured position. The
// receiver must have been created from the same seed as the stream the state
// was captured from, and must not have advanced past it.
func (g *RNG) Restore(st RNGState) error {
	if g.src.draws > st.Draws {
		return fmt.Errorf("%w: at draw %d, target %d", ErrRNGStatePast, g.src.draws, st.Draws)
	}
	for g.src.draws < st.Draws {
		g.src.Uint64()
	}
	g.readVal, g.readPos = st.ReadVal, st.ReadPos
	return nil
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

// Bytes fills b with pseudo-random bytes. The loop replicates
// math/rand.Rand.Read byte for byte, but keeps the partial-draw buffer in
// the RNG itself so State can capture it.
func (g *RNG) Bytes(b []byte) {
	pos, val := g.readPos, g.readVal
	for i := range b {
		if pos == 0 {
			val = g.r.Int63()
			pos = 7
		}
		b[i] = byte(val)
		val >>= 8
		pos--
	}
	g.readPos, g.readVal = pos, val
}
