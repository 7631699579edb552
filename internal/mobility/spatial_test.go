package mobility

import (
	"sort"
	"testing"

	"give2get/internal/sim"
	"give2get/internal/trace"
)

func spatialConfig() SpatialConfig {
	return SpatialConfig{
		Name:           "spatial-test",
		CommunitySizes: []int{5, 5},
		Duration:       24 * sim.Hour,
		Cells:          8,
		EpochMean:      20 * sim.Minute,
		HomeAttraction: 0.6,
	}
}

func TestSpatialValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*SpatialConfig)
	}{
		{name: "no communities", mutate: func(c *SpatialConfig) { c.CommunitySizes = nil }},
		{name: "zero size", mutate: func(c *SpatialConfig) { c.CommunitySizes = []int{0} }},
		{name: "one node", mutate: func(c *SpatialConfig) { c.CommunitySizes = []int{1} }},
		{name: "zero duration", mutate: func(c *SpatialConfig) { c.Duration = 0 }},
		{name: "too few cells", mutate: func(c *SpatialConfig) { c.Cells = 2 }},
		{name: "zero epoch", mutate: func(c *SpatialConfig) { c.EpochMean = 0 }},
		{name: "bad attraction", mutate: func(c *SpatialConfig) { c.HomeAttraction = 1.5 }},
		{name: "inverted window", mutate: func(c *SpatialConfig) {
			c.DayStart = 10 * sim.Hour
			c.DayEnd = 9 * sim.Hour
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := spatialConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("invalid spatial config accepted")
			}
		})
	}
	if err := spatialConfig().Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestGenerateSpatialBasics(t *testing.T) {
	cfg := spatialConfig()
	tr, err := GenerateSpatial(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Nodes() != 10 {
		t.Fatalf("nodes = %d", tr.Nodes())
	}
	if tr.Len() < 100 {
		t.Fatalf("suspiciously few contacts: %d", tr.Len())
	}
	for _, c := range tr.Contacts() {
		if c.Start < 0 || c.End > cfg.Duration || c.Start >= c.End {
			t.Fatalf("bad contact interval %+v", c)
		}
	}
}

func TestGenerateSpatialDeterministic(t *testing.T) {
	cfg := spatialConfig()
	a, err := GenerateSpatial(cfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateSpatial(cfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatalf("same seed, different contact counts: %d vs %d", a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		if a.Contacts()[i] != b.Contacts()[i] {
			t.Fatalf("contact %d differs", i)
		}
	}
}

func TestGenerateSpatialCommunityStructure(t *testing.T) {
	// Home attraction concentrates each community in its home cell, so
	// within-community pairs must meet far more than across.
	cfg := spatialConfig()
	tr, err := GenerateSpatial(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	counts := trace.ContactCounts(tr)
	var within, across, withinPairs, acrossPairs int
	for pair, n := range counts {
		if cfg.CommunityOf(pair.A) == cfg.CommunityOf(pair.B) {
			within += n
			withinPairs++
		} else {
			across += n
			acrossPairs++
		}
	}
	if withinPairs == 0 || acrossPairs == 0 {
		t.Fatalf("pairs within=%d across=%d", withinPairs, acrossPairs)
	}
	withinRate := float64(within) / float64(withinPairs)
	acrossRate := float64(across) / float64(acrossPairs)
	if withinRate < 2*acrossRate {
		t.Errorf("within rate %.1f not clearly above across %.1f", withinRate, acrossRate)
	}
}

func TestGenerateSpatialRespectsDayWindow(t *testing.T) {
	cfg := spatialConfig()
	cfg.Duration = 2 * 24 * sim.Hour
	cfg.DayStart = 9 * sim.Hour
	cfg.DayEnd = 17 * sim.Hour
	tr, err := GenerateSpatial(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() == 0 {
		t.Fatal("no contacts")
	}
	const day = 24 * sim.Hour
	for _, c := range tr.Contacts() {
		startOff := c.Start % day
		if startOff < cfg.DayStart || startOff >= cfg.DayEnd {
			t.Fatalf("contact starts off-hours: %v", c.Start)
		}
		endOff := (c.End - 1) % day
		if endOff < cfg.DayStart || endOff >= cfg.DayEnd {
			t.Fatalf("contact ends off-hours: %v", c.End)
		}
	}
}

func TestSpatialCampusPreset(t *testing.T) {
	cfg := SpatialCampus()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("preset invalid: %v", err)
	}
	tr, err := GenerateSpatial(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Nodes() != 30 || tr.Len() < 1000 {
		t.Errorf("preset trace: %d nodes, %d contacts", tr.Nodes(), tr.Len())
	}
}

func TestSpatialTimelinesSorted(t *testing.T) {
	cfg := spatialConfig()
	rng := sim.StreamFromSeed(1, "x")
	tl := nodeTimeline(cfg, 0, rng)
	if len(tl) == 0 {
		t.Fatal("empty timeline")
	}
	copied := append([]stay(nil), tl...)
	sortStays(copied)
	for i := range tl {
		if tl[i] != copied[i] {
			t.Fatal("timeline not in chronological order")
		}
	}
}

// sortStays orders a timeline by start, the order nodeTimeline produces.
func sortStays(s []stay) {
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
}
