package mobility

import (
	"testing"
	"testing/quick"

	"give2get/internal/sim"
	"give2get/internal/trace"
)

func smallConfig() Config {
	return Config{
		Name:           "small",
		CommunitySizes: []int{5, 5},
		Duration:       12 * sim.Hour,
		Within:         PairParams{ShortGap: 10 * sim.Minute, LongGap: 2 * sim.Hour, BurstProb: 0.6},
		Across:         PairParams{ShortGap: 30 * sim.Minute, LongGap: 8 * sim.Hour, BurstProb: 0.2},
		ContactMean:    2 * sim.Minute,
	}
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{name: "no communities", mutate: func(c *Config) { c.CommunitySizes = nil }},
		{name: "zero community", mutate: func(c *Config) { c.CommunitySizes = []int{3, 0} }},
		{name: "single node", mutate: func(c *Config) { c.CommunitySizes = []int{1} }},
		{name: "zero duration", mutate: func(c *Config) { c.Duration = 0 }},
		{name: "bad within gap", mutate: func(c *Config) { c.Within.ShortGap = 0 }},
		{name: "bad across prob", mutate: func(c *Config) { c.Across.BurstProb = 1.5 }},
		{name: "zero contact mean", mutate: func(c *Config) { c.ContactMean = 0 }},
		{name: "inverted day window", mutate: func(c *Config) { c.DayStart = 10 * sim.Hour; c.DayEnd = 9 * sim.Hour }},
		{name: "day window too large", mutate: func(c *Config) { c.DayEnd = 25 * sim.Hour }},
		{name: "sociability out of range", mutate: func(c *Config) { c.SociabilitySpread = 1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := smallConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("Validate accepted invalid config")
			}
		})
	}
	if err := smallConfig().Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestCommunityOf(t *testing.T) {
	cfg := Config{CommunitySizes: []int{3, 4, 2}}
	want := []int{0, 0, 0, 1, 1, 1, 1, 2, 2}
	for n, w := range want {
		if got := cfg.CommunityOf(trace.NodeID(n)); got != w {
			t.Errorf("CommunityOf(%d) = %d, want %d", n, got, w)
		}
	}
	if got := cfg.CommunityOf(9); got != -1 {
		t.Errorf("CommunityOf(9) = %d, want -1", got)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := smallConfig()
	a, err := Generate(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatalf("same seed, different contact counts: %d vs %d", a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		if a.Contacts()[i] != b.Contacts()[i] {
			t.Fatalf("contact %d differs: %+v vs %+v", i, a.Contacts()[i], b.Contacts()[i])
		}
	}
	c, err := Generate(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() == a.Len() {
		identical := true
		for i := 0; i < a.Len(); i++ {
			if a.Contacts()[i] != c.Contacts()[i] {
				identical = false
				break
			}
		}
		if identical {
			t.Error("different seeds produced identical traces")
		}
	}
}

func TestGenerateCommunityStructure(t *testing.T) {
	cfg := smallConfig()
	tr, err := Generate(cfg, 3)
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
		t.Errorf("within-community contact rate %.1f not clearly above across rate %.1f",
			withinRate, acrossRate)
	}
}

func TestGenerateRespectsDayWindow(t *testing.T) {
	cfg := smallConfig()
	cfg.Duration = 2 * 24 * sim.Hour
	cfg.DayStart = 9 * sim.Hour
	cfg.DayEnd = 17 * sim.Hour
	tr, err := Generate(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() == 0 {
		t.Fatal("no contacts generated")
	}
	const day = 24 * sim.Hour
	for _, c := range tr.Contacts() {
		offset := c.Start % day
		if offset < cfg.DayStart || offset >= cfg.DayEnd {
			t.Fatalf("contact starts outside day window: %v (offset %v)", c.Start, offset)
		}
	}
}

func TestGenerateContactsWithinDuration(t *testing.T) {
	property := func(seed int64) bool {
		cfg := smallConfig()
		tr, err := Generate(cfg, seed)
		if err != nil {
			return false
		}
		for _, c := range tr.Contacts() {
			if c.Start < 0 || c.End > cfg.Duration || c.Start > c.End {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestPresetsGenerate(t *testing.T) {
	for _, cfg := range []Config{Infocom05(), Cambridge06()} {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			if err := cfg.Validate(); err != nil {
				t.Fatalf("preset invalid: %v", err)
			}
			tr, err := Generate(cfg, 1)
			if err != nil {
				t.Fatal(err)
			}
			if tr.Nodes() != cfg.Nodes() {
				t.Errorf("nodes = %d, want %d", tr.Nodes(), cfg.Nodes())
			}
			stats := trace.ComputeStats(tr)
			if stats.Contacts < 1000 {
				t.Errorf("suspiciously sparse preset: %v", stats)
			}
			// Every node should meet someone: isolated nodes would make the
			// forwarding experiments degenerate.
			seen := make([]bool, tr.Nodes())
			for _, c := range tr.Contacts() {
				seen[c.A], seen[c.B] = true, true
			}
			for n, ok := range seen {
				if !ok {
					t.Errorf("node %d never appears in any contact", n)
				}
			}
		})
	}
}

func TestInfocomFasterRemeetsThanCambridge(t *testing.T) {
	inf, err := Generate(Infocom05(), 2)
	if err != nil {
		t.Fatal(err)
	}
	cam, err := Generate(Cambridge06(), 2)
	if err != nil {
		t.Fatal(err)
	}
	infStats := trace.ComputeStats(inf)
	camStats := trace.ComputeStats(cam)
	if infStats.MedianInterContact >= camStats.MedianInterContact {
		t.Errorf("Infocom median inter-contact %v should be below Cambridge %v",
			infStats.MedianInterContact, camStats.MedianInterContact)
	}
}

func TestExperimentWindow(t *testing.T) {
	cfg := Infocom05()
	from, to := ExperimentWindow(cfg, 1)
	if to-from != 3*sim.Hour {
		t.Errorf("window length = %v, want 3h", to-from)
	}
	if from != 24*sim.Hour+cfg.DayStart+sim.Hour {
		t.Errorf("window start = %v", from)
	}
	tr, err := Generate(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	w, err := tr.Window(from, to)
	if err != nil {
		t.Fatal(err)
	}
	if w.Len() == 0 {
		t.Error("experiment window contains no contacts")
	}
}
