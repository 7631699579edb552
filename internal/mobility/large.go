package mobility

import (
	"errors"

	"give2get/internal/sim"
	"give2get/internal/trace"
)

// LargeConfig describes a community-structured scenario at a scale where the
// O(communities²·size²) all-pairs sweep of Generate is unaffordable. The
// population is Communities uniform communities of CommunitySize nodes; every
// intra-community pair is a renewal process (as in Generate), but
// cross-community contact is sparse: each node bridges to AcrossDegree
// randomly chosen nodes of other communities, so the pair count is
// Communities·CommunitySize²/2 + Nodes·AcrossDegree rather than Nodes²/2.
type LargeConfig struct {
	// Name labels the generated trace.
	Name string
	// Communities is the number of communities; CommunitySize the uniform
	// node count of each. The population is their product.
	Communities, CommunitySize int
	// Duration is the total span of the trace.
	Duration sim.Time
	// Within parameterizes intra-community pairs, Across the sparse bridges.
	Within, Across PairParams
	// ContactMean is the mean contact (meeting) duration.
	ContactMean sim.Time
	// AcrossDegree is how many cross-community bridge pairs each node
	// initiates (duplicate draws collapse). Zero isolates the communities.
	AcrossDegree int
	// SociabilitySpread and DayStart/DayEnd act exactly as in Config.
	SociabilitySpread float64
	DayStart, DayEnd  sim.Time
}

// Nodes returns the total population.
func (c LargeConfig) Nodes() int { return c.Communities * c.CommunitySize }

// Validate checks the configuration for structural errors.
func (c LargeConfig) Validate() error {
	if c.Communities <= 0 || c.CommunitySize <= 0 {
		return errors.New("mobility: communities and community size must be positive")
	}
	if c.Nodes() < 2 {
		return errors.New("mobility: need at least two nodes")
	}
	if c.AcrossDegree < 0 {
		return errors.New("mobility: across degree must be non-negative")
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
	return nil
}

// GenerateLarge streams the contacts of a large community trace to emit, one
// pair's renewal process at a time, deterministically for a given seed.
// Contacts arrive UNSORTED (pair-major order); feed them through a
// trace.ExtWriter to obtain a sorted binary trace. Peak memory is O(nodes)
// for the sociability table plus O(nodes·AcrossDegree) for bridge dedup —
// never O(contacts).
func GenerateLarge(cfg LargeConfig, seed int64, emit func(trace.Contact) error) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	rng := sim.StreamFromSeed(seed, "mobility-large:"+cfg.Name)
	nodes := cfg.Nodes()

	sociability := make([]float64, nodes)
	for i := range sociability {
		sociability[i] = 1 + cfg.SociabilitySpread*(2*rng.Float64()-1)
	}
	// pairContacts only consults these fields.
	base := Config{
		Duration:    cfg.Duration,
		ContactMean: cfg.ContactMean,
		DayStart:    cfg.DayStart,
		DayEnd:      cfg.DayEnd,
	}

	// Dense intra-community pairs, community by community.
	for comm := 0; comm < cfg.Communities; comm++ {
		lo := comm * cfg.CommunitySize
		hi := lo + cfg.CommunitySize
		for a := lo; a < hi; a++ {
			for b := a + 1; b < hi; b++ {
				scale := 1 / (sociability[a] * sociability[b])
				if err := pairContacts(base, cfg.Within, scale, a, b, rng, emit); err != nil {
					return err
				}
			}
		}
	}

	// Sparse cross-community bridges. Each node draws AcrossDegree partners
	// outside its own community; duplicate (unordered) pairs collapse so a
	// bridge never runs twice.
	if cfg.Communities > 1 && cfg.AcrossDegree > 0 {
		seen := make(map[uint64]struct{}, nodes*cfg.AcrossDegree)
		for a := 0; a < nodes; a++ {
			comm := a / cfg.CommunitySize
			for k := 0; k < cfg.AcrossDegree; k++ {
				b := rng.Intn(nodes)
				for b/cfg.CommunitySize == comm {
					b = rng.Intn(nodes)
				}
				x, y := a, b
				if x > y {
					x, y = y, x
				}
				key := uint64(x)<<32 | uint64(y)
				if _, dup := seen[key]; dup {
					continue
				}
				seen[key] = struct{}{}
				scale := 1 / (sociability[x] * sociability[y])
				if err := pairContacts(base, cfg.Across, scale, x, y, rng, emit); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
