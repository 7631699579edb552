// Package mobility generates synthetic community-structured contact traces.
//
// The CRAWDAD Infocom 05 and Cambridge 06 datasets used by the paper are
// licensed and cannot be redistributed, so experiments run on traces drawn
// from a social contact model that preserves the properties the Give2Get
// mechanisms depend on:
//
//   - community structure: members of the same community meet often and
//     re-meet quickly (this drives the Δ2 = 2Δ1 test-phase re-encounter
//     probability the paper measures in Figs. 4 and 7);
//   - heterogeneous contact rates: per-node sociability factors spread the
//     pairwise meeting rates;
//   - bursty meetings: pairwise inter-contact gaps mix a short "burst" gap
//     with a long gap, yielding the heavy-tail-with-cut-off shape reported
//     for these traces;
//   - diurnal activity: meetings happen only inside a daily active window.
//
// Each unordered node pair is an independent renewal process: after a
// meeting, the next gap is a short exponential with probability BurstProb,
// otherwise a long exponential. Pair rates are scaled by both endpoints'
// sociability.
package mobility

import (
	"errors"
	"fmt"

	"give2get/internal/sim"
	"give2get/internal/trace"
)

// PairParams describes the renewal process of one class of node pair.
type PairParams struct {
	// ShortGap is the mean of the burst (re-meet soon) inter-contact gap.
	ShortGap sim.Time
	// LongGap is the mean of the non-burst inter-contact gap.
	LongGap sim.Time
	// BurstProb is the probability that the next gap is a burst gap.
	BurstProb float64
}

func (p PairParams) validate(kind string) error {
	switch {
	case p.ShortGap <= 0 || p.LongGap <= 0:
		return fmt.Errorf("mobility: %s gaps must be positive", kind)
	case p.BurstProb < 0 || p.BurstProb > 1:
		return fmt.Errorf("mobility: %s burst probability %v outside [0,1]", kind, p.BurstProb)
	default:
		return nil
	}
}

// Config fully describes a synthetic scenario.
type Config struct {
	// Name labels the generated trace.
	Name string
	// CommunitySizes gives the node count of each community; the total is
	// the trace's node population. Node IDs are assigned community by
	// community, but experiments must not rely on that: community
	// membership is recovered with k-clique detection, as in the paper.
	CommunitySizes []int
	// Duration is the total span of the trace.
	Duration sim.Time
	// Within parameterizes pairs inside the same community, Across pairs in
	// different communities.
	Within, Across PairParams
	// ContactMean is the mean contact (meeting) duration.
	ContactMean sim.Time
	// DayStart/DayEnd bound the daily active window (offsets within each
	// 24 h day). Contacts are only generated inside the window. If both are
	// zero the whole day is active.
	DayStart, DayEnd sim.Time
	// SociabilitySpread controls node heterogeneity: each node draws a
	// sociability factor uniformly from [1-s, 1+s]. Zero means homogeneous.
	SociabilitySpread float64
	// DailyAbsence is the probability that a node is away for a whole day
	// (out of the conference venue, off campus): an absent node has no
	// contacts that day. This produces the unreachable destinations that
	// cap epidemic delivery on the real traces.
	DailyAbsence float64
}

// Validate checks the configuration for structural errors.
func (c Config) Validate() error {
	if len(c.CommunitySizes) == 0 {
		return errors.New("mobility: no communities")
	}
	total := 0
	for i, size := range c.CommunitySizes {
		if size <= 0 {
			return fmt.Errorf("mobility: community %d has non-positive size %d", i, size)
		}
		total += size
	}
	if total < 2 {
		return errors.New("mobility: need at least two nodes")
	}
	if c.Duration <= 0 {
		return errors.New("mobility: duration must be positive")
	}
	if err := c.Within.validate("within"); err != nil {
		return err
	}
	if err := c.Across.validate("across"); err != nil {
		return err
	}
	if c.ContactMean <= 0 {
		return errors.New("mobility: contact mean must be positive")
	}
	if c.DayStart < 0 || c.DayEnd < 0 || c.DayStart > 24*sim.Hour || c.DayEnd > 24*sim.Hour {
		return errors.New("mobility: day window outside [0,24h]")
	}
	if (c.DayStart != 0 || c.DayEnd != 0) && c.DayEnd <= c.DayStart {
		return errors.New("mobility: day window must end after it starts")
	}
	if c.SociabilitySpread < 0 || c.SociabilitySpread >= 1 {
		return errors.New("mobility: sociability spread outside [0,1)")
	}
	if c.DailyAbsence < 0 || c.DailyAbsence >= 1 {
		return errors.New("mobility: daily absence outside [0,1)")
	}
	return nil
}

// Nodes returns the total node population of the configuration.
func (c Config) Nodes() int {
	total := 0
	for _, s := range c.CommunitySizes {
		total += s
	}
	return total
}

// CommunityOf returns the configured community index of node n. This is the
// ground truth used to validate k-clique detection; protocols never see it.
func (c Config) CommunityOf(n trace.NodeID) int {
	remaining := int(n)
	for i, size := range c.CommunitySizes {
		if remaining < size {
			return i
		}
		remaining -= size
	}
	return -1
}

// Generate draws a contact trace from the configuration, deterministically
// for a given seed.
func Generate(cfg Config, seed int64) (*trace.Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := sim.StreamFromSeed(seed, "mobility:"+cfg.Name)
	nodes := cfg.Nodes()

	sociability := make([]float64, nodes)
	for i := range sociability {
		sociability[i] = 1 + cfg.SociabilitySpread*(2*rng.Float64()-1)
	}
	presence := drawPresence(cfg, nodes, rng)

	var contacts []trace.Contact
	// Meetings on days either endpoint is absent are suppressed; the renewal
	// clock still advances, as the present node keeps moving.
	keepPresent := func(c trace.Contact) error {
		if bothPresent(presence, int(c.A), int(c.B), c.Start) {
			contacts = append(contacts, c)
		}
		return nil
	}
	for a := 0; a < nodes; a++ {
		for b := a + 1; b < nodes; b++ {
			params := cfg.Across
			if cfg.CommunityOf(trace.NodeID(a)) == cfg.CommunityOf(trace.NodeID(b)) {
				params = cfg.Within
			}
			// Faster pairs (higher combined sociability) get shorter gaps.
			scale := 1 / (sociability[a] * sociability[b])
			if err := pairContacts(cfg, params, scale, a, b, rng, keepPresent); err != nil {
				return nil, err
			}
		}
	}
	return trace.New(cfg.Name, nodes, contacts)
}

// drawPresence fixes, per node and per day, whether the node is around at
// all. The node-major draw order keeps a node's schedule stable across
// pairs.
func drawPresence(cfg Config, nodes int, rng *sim.RNG) [][]bool {
	days := int(cfg.Duration/(24*sim.Hour)) + 1
	presence := make([][]bool, nodes)
	for n := range presence {
		presence[n] = make([]bool, days)
		for d := range presence[n] {
			presence[n][d] = !rng.Bool(cfg.DailyAbsence)
		}
	}
	return presence
}

func bothPresent(presence [][]bool, a, b int, t sim.Time) bool {
	day := int(t / (24 * sim.Hour))
	if day >= len(presence[a]) {
		return false
	}
	return presence[a][day] && presence[b][day]
}

// pairContacts runs one pair's renewal process across the whole trace
// duration, handing each meeting to emit in time order. Only cfg's Duration,
// ContactMean and day window are consulted.
func pairContacts(cfg Config, p PairParams, scale float64, a, b int, rng *sim.RNG, emit func(trace.Contact) error) error {
	shortGap := sim.Time(float64(p.ShortGap) * scale)
	longGap := sim.Time(float64(p.LongGap) * scale)

	// Start each pair at a random phase of a long gap so the trace does not
	// begin with a synchronized burst of meetings.
	t := sim.Time(rng.Float64() * float64(longGap))
	for t < cfg.Duration {
		t = alignToActiveWindow(cfg, t, rng)
		if t >= cfg.Duration {
			break
		}
		dur := rng.Exp(cfg.ContactMean)
		if dur < sim.Second {
			dur = sim.Second
		}
		end := t + dur
		if end > cfg.Duration {
			end = cfg.Duration
		}
		if err := emit(trace.Contact{
			A: trace.NodeID(a), B: trace.NodeID(b), Start: t, End: end,
		}); err != nil {
			return fmt.Errorf("mobility: emit: %w", err)
		}
		gapMean := longGap
		if rng.Bool(p.BurstProb) {
			gapMean = shortGap
		}
		t = end + rng.Exp(gapMean)
	}
	return nil
}

// alignToActiveWindow pushes an instant falling outside the daily active
// window to a jittered point just after the next window opens.
func alignToActiveWindow(cfg Config, t sim.Time, rng *sim.RNG) sim.Time {
	if cfg.DayStart == 0 && cfg.DayEnd == 0 {
		return t
	}
	const day = 24 * sim.Hour
	for {
		offset := t % day
		if offset >= cfg.DayStart && offset < cfg.DayEnd {
			return t
		}
		dayBase := t - offset
		next := dayBase + cfg.DayStart
		if offset >= cfg.DayEnd {
			next += day
		}
		// Jitter spreads wake-ups over the first tenth of the window.
		t = next + sim.Time(rng.Float64()*float64(cfg.DayEnd-cfg.DayStart)/10)
		if t >= cfg.Duration {
			return t
		}
	}
}
