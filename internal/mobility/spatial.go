package mobility

import (
	"errors"
	"fmt"

	"give2get/internal/sim"
	"give2get/internal/trace"
)

// SpatialConfig describes the home-cell mobility model, a compact variant of
// the community-based mobility models (HCMM-style) the PSN literature uses:
// the area is a grid of cells, each community has a home cell, and nodes
// jump between cells — preferentially back home — staying in each cell for
// an exponential epoch. Two nodes are in contact exactly while they occupy
// the same cell. Compared to the pairwise renewal model (Config/Generate),
// contacts here emerge from shared locations, so group meetings (three or
// more nodes in one cell) arise naturally.
type SpatialConfig struct {
	// Name labels the generated trace.
	Name string
	// CommunitySizes as in Config; community i's home is cell i.
	CommunitySizes []int
	// Duration is the total span of the trace.
	Duration sim.Time
	// Cells is the number of distinct locations; must be at least the
	// number of communities plus one roaming cell.
	Cells int
	// EpochMean is the mean time a node stays in a cell before moving.
	EpochMean sim.Time
	// HomeAttraction is the probability that a move returns the node to
	// its community's home cell (the "social attraction" of HCMM); the
	// rest of the moves pick a uniform random cell.
	HomeAttraction float64
	// DayStart/DayEnd bound the daily active window, as in Config. Outside
	// the window every node is isolated (off the grid).
	DayStart, DayEnd sim.Time
}

// Validate checks the configuration.
func (c SpatialConfig) Validate() error {
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
	if c.Cells < len(c.CommunitySizes)+1 {
		return fmt.Errorf("mobility: need at least %d cells, got %d",
			len(c.CommunitySizes)+1, c.Cells)
	}
	if c.EpochMean <= 0 {
		return errors.New("mobility: epoch mean must be positive")
	}
	if c.HomeAttraction < 0 || c.HomeAttraction > 1 {
		return errors.New("mobility: home attraction outside [0,1]")
	}
	if c.DayStart < 0 || c.DayEnd < 0 || c.DayStart > 24*sim.Hour || c.DayEnd > 24*sim.Hour {
		return errors.New("mobility: day window outside [0,24h]")
	}
	if (c.DayStart != 0 || c.DayEnd != 0) && c.DayEnd <= c.DayStart {
		return errors.New("mobility: day window must end after it starts")
	}
	return nil
}

// Nodes returns the population.
func (c SpatialConfig) Nodes() int {
	total := 0
	for _, s := range c.CommunitySizes {
		total += s
	}
	return total
}

// CommunityOf returns the configured community of node n (ground truth for
// tests; protocols recover communities via k-clique detection).
func (c SpatialConfig) CommunityOf(n trace.NodeID) int {
	remaining := int(n)
	for i, size := range c.CommunitySizes {
		if remaining < size {
			return i
		}
		remaining -= size
	}
	return -1
}

// stay is one interval a node spends in one cell.
type stay struct {
	cell       int
	start, end sim.Time
}

// GenerateSpatial draws a contact trace from the home-cell model,
// deterministically for a given seed.
func GenerateSpatial(cfg SpatialConfig, seed int64) (*trace.Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := sim.StreamFromSeed(seed, "mobility-spatial:"+cfg.Name)
	nodes := cfg.Nodes()

	timelines := make([][]stay, nodes)
	for n := 0; n < nodes; n++ {
		timelines[n] = nodeTimeline(cfg, trace.NodeID(n), rng)
	}

	var contacts []trace.Contact
	for a := 0; a < nodes; a++ {
		for b := a + 1; b < nodes; b++ {
			contacts = appendOverlaps(contacts, timelines[a], timelines[b], a, b)
		}
	}
	return trace.New(cfg.Name, nodes, contacts)
}

// nodeTimeline walks one node's cell occupancy across the trace duration.
// Off-hours stays are marked with cell -1 (isolated).
func nodeTimeline(cfg SpatialConfig, n trace.NodeID, rng *sim.RNG) []stay {
	home := cfg.CommunityOf(n)
	var out []stay
	at := sim.Time(0)
	// Start everyone at home at a random phase of an epoch.
	cell := home
	for at < cfg.Duration {
		dur := rng.Exp(cfg.EpochMean)
		if dur < sim.Second {
			dur = sim.Second
		}
		end := at + dur
		if end > cfg.Duration {
			end = cfg.Duration
		}
		out = appendActiveStays(out, cfg, cell, at, end)
		at = end
		if rng.Bool(cfg.HomeAttraction) {
			cell = home
		} else {
			cell = rng.Intn(cfg.Cells)
		}
	}
	return out
}

// appendActiveStays clips a stay to the daily active windows, emitting
// isolated (-1) filler for the off-hours.
func appendActiveStays(dst []stay, cfg SpatialConfig, cell int, from, to sim.Time) []stay {
	if cfg.DayStart == 0 && cfg.DayEnd == 0 {
		return append(dst, stay{cell: cell, start: from, end: to})
	}
	const day = 24 * sim.Hour
	at := from
	for at < to {
		dayBase := at - at%day
		winStart := dayBase + cfg.DayStart
		winEnd := dayBase + cfg.DayEnd
		switch {
		case at < winStart:
			at = winStart
			if at > to {
				return dst
			}
		case at >= winEnd:
			at = dayBase + day + cfg.DayStart
			if at > to {
				return dst
			}
		default:
			segEnd := winEnd
			if to < segEnd {
				segEnd = to
			}
			dst = append(dst, stay{cell: cell, start: at, end: segEnd})
			at = segEnd
			if at >= winEnd {
				at = dayBase + day + cfg.DayStart
			}
		}
	}
	return dst
}

// appendOverlaps merges two timelines and emits a contact for every
// co-residence interval.
func appendOverlaps(dst []trace.Contact, ta, tb []stay, a, b int) []trace.Contact {
	i, j := 0, 0
	for i < len(ta) && j < len(tb) {
		sa, sb := ta[i], tb[j]
		start := maxTime(sa.start, sb.start)
		end := minTime(sa.end, sb.end)
		if start < end && sa.cell == sb.cell && sa.cell >= 0 {
			dst = append(dst, trace.Contact{
				A: trace.NodeID(a), B: trace.NodeID(b), Start: start, End: end,
			})
		}
		if sa.end <= sb.end {
			i++
		} else {
			j++
		}
	}
	return dst
}

func maxTime(a, b sim.Time) sim.Time {
	if a > b {
		return a
	}
	return b
}

func minTime(a, b sim.Time) sim.Time {
	if a < b {
		return a
	}
	return b
}

// SpatialCampus returns a ready-made home-cell scenario: three communities
// on a 12-cell campus over five days.
func SpatialCampus() SpatialConfig {
	return SpatialConfig{
		Name:           "campus-spatial",
		CommunitySizes: []int{12, 10, 8},
		Duration:       5 * 24 * sim.Hour,
		Cells:          12,
		EpochMean:      25 * sim.Minute,
		HomeAttraction: 0.65,
		DayStart:       9 * sim.Hour,
		DayEnd:         19 * sim.Hour,
	}
}
