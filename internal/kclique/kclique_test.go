package kclique

import (
	"sort"
	"testing"
	"testing/quick"

	"give2get/internal/mobility"
	"give2get/internal/sim"
	"give2get/internal/trace"
)

// traceFromEdges builds a trace in which each listed pair met `times` times.
func traceFromEdges(t *testing.T, nodes int, times int, edges [][2]trace.NodeID) *trace.Trace {
	t.Helper()
	var contacts []trace.Contact
	at := sim.Time(0)
	for _, e := range edges {
		for i := 0; i < times; i++ {
			contacts = append(contacts, trace.Contact{
				A: e[0], B: e[1], Start: at, End: at + sim.Minute,
			})
			at += 2 * sim.Minute
		}
	}
	tr, err := trace.New("edges", nodes, contacts)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestDetectTwoTriangles(t *testing.T) {
	// Two triangles {0,1,2} and {3,4,5} joined by a single weak edge 2-3.
	tr := traceFromEdges(t, 6, 3, [][2]trace.NodeID{
		{0, 1}, {1, 2}, {0, 2},
		{3, 4}, {4, 5}, {3, 5},
		{2, 3},
	})
	comms, err := Detect(tr, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if comms.Len() != 2 {
		t.Fatalf("communities = %d (%v), want 2", comms.Len(), comms)
	}
	if !comms.SameCommunity(0, 2) {
		t.Error("0 and 2 should share a community")
	}
	if comms.SameCommunity(0, 5) {
		t.Error("0 and 5 should not share a community")
	}
}

func TestDetectOverlappingCommunities(t *testing.T) {
	// Cliques {0,1,2} and {2,3,4} share node 2 (< k-1 = 2 nodes), so they
	// are distinct communities and node 2 belongs to both.
	tr := traceFromEdges(t, 5, 3, [][2]trace.NodeID{
		{0, 1}, {1, 2}, {0, 2},
		{2, 3}, {3, 4}, {2, 4},
	})
	comms, err := Detect(tr, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if comms.Len() != 2 {
		t.Fatalf("communities = %d, want 2", comms.Len())
	}
	if got := comms.Of(2); len(got) != 2 {
		t.Errorf("node 2 communities = %v, want 2 ids", got)
	}
	if !comms.SameCommunity(2, 0) || !comms.SameCommunity(2, 4) {
		t.Error("overlapping node should share communities with both sides")
	}
	if comms.SameCommunity(0, 4) {
		t.Error("0 and 4 must not share a community")
	}
}

func TestDetectPercolationMerges(t *testing.T) {
	// Triangles {0,1,2} and {1,2,3} share the edge (1,2) = k-1 nodes, so
	// they percolate into a single community {0,1,2,3}.
	tr := traceFromEdges(t, 4, 3, [][2]trace.NodeID{
		{0, 1}, {1, 2}, {0, 2},
		{1, 3}, {2, 3},
	})
	comms, err := Detect(tr, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if comms.Len() != 1 {
		t.Fatalf("communities = %d (%v), want 1", comms.Len(), comms)
	}
	if got := comms.Group(0); len(got) != 4 {
		t.Errorf("community = %v, want all four nodes", got)
	}
}

func TestMinContactsFiltersWeakEdges(t *testing.T) {
	// The triangle edges appear 3 times; edge (0,3) only once.
	tr := traceFromEdges(t, 4, 3, [][2]trace.NodeID{{0, 1}, {1, 2}, {0, 2}})
	weak := traceFromEdges(t, 4, 1, [][2]trace.NodeID{{0, 3}})
	merged, err := trace.New("m", 4, append(append([]trace.Contact{}, tr.Contacts()...), weak.Contacts()...))
	if err != nil {
		t.Fatal(err)
	}
	comms, err := Detect(merged, Options{K: 3, MinContacts: 3})
	if err != nil {
		t.Fatal(err)
	}
	if comms.Len() != 1 {
		t.Fatalf("communities = %d, want 1", comms.Len())
	}
	if len(comms.Of(3)) != 0 {
		t.Errorf("node 3 should be in no community, got %v", comms.Of(3))
	}
	if comms.SameCommunity(3, 3) {
		t.Error("community-less node must not match even itself")
	}
}

func TestDetectOptionValidation(t *testing.T) {
	tr := traceFromEdges(t, 3, 1, [][2]trace.NodeID{{0, 1}})
	if _, err := Detect(tr, Options{K: 1, MinContacts: 1}); err == nil {
		t.Error("K=1 accepted")
	}
	if _, err := Detect(tr, Options{K: 3, MinContacts: 0}); err == nil {
		t.Error("MinContacts=0 accepted")
	}
}

func TestDetectRecoversPlantedCommunities(t *testing.T) {
	cfg := mobility.Config{
		Name:           "planted",
		CommunitySizes: []int{8, 8, 8},
		Duration:       24 * sim.Hour,
		Within:         mobility.PairParams{ShortGap: 10 * sim.Minute, LongGap: 90 * sim.Minute, BurstProb: 0.6},
		Across:         mobility.PairParams{ShortGap: 2 * sim.Hour, LongGap: 40 * sim.Hour, BurstProb: 0.1},
		ContactMean:    2 * sim.Minute,
	}
	tr, err := mobility.Generate(cfg, 11)
	if err != nil {
		t.Fatal(err)
	}
	comms, err := Detect(tr, Options{K: 3, MinContacts: 5})
	if err != nil {
		t.Fatal(err)
	}
	if comms.Len() < 2 {
		t.Fatalf("detected %d communities, want >= 2", comms.Len())
	}
	// Score agreement between detection and ground truth over all pairs.
	agree, total := 0, 0
	for a := 0; a < tr.Nodes(); a++ {
		for b := a + 1; b < tr.Nodes(); b++ {
			same := cfg.CommunityOf(trace.NodeID(a)) == cfg.CommunityOf(trace.NodeID(b))
			if comms.SameCommunity(trace.NodeID(a), trace.NodeID(b)) == same {
				agree++
			}
			total++
		}
	}
	if ratio := float64(agree) / float64(total); ratio < 0.85 {
		t.Errorf("community detection agreement = %.2f, want >= 0.85 (%v)", ratio, comms)
	}
}

// Property: every community contains at least K nodes, members are sorted
// and unique, and membership maps are consistent with groups.
func TestDetectInvariantsProperty(t *testing.T) {
	opts := DefaultOptions()
	property := func(seed int64) bool {
		cfg := mobility.Config{
			Name:           "prop",
			CommunitySizes: []int{6, 6},
			Duration:       12 * sim.Hour,
			Within:         mobility.PairParams{ShortGap: 15 * sim.Minute, LongGap: 2 * sim.Hour, BurstProb: 0.5},
			Across:         mobility.PairParams{ShortGap: sim.Hour, LongGap: 12 * sim.Hour, BurstProb: 0.2},
			ContactMean:    2 * sim.Minute,
		}
		tr, err := mobility.Generate(cfg, seed)
		if err != nil {
			return false
		}
		comms, err := Detect(tr, opts)
		if err != nil {
			return false
		}
		for id := 0; id < comms.Len(); id++ {
			group := comms.Group(id)
			if len(group) < opts.K {
				return false
			}
			for i := 1; i < len(group); i++ {
				if group[i-1] >= group[i] {
					return false
				}
			}
			for _, n := range group {
				found := false
				for _, got := range comms.Of(n) {
					if got == id {
						found = true
					}
				}
				if !found {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// Of returns the community ids node n belongs to, in ascending order.
func (c *Communities) Of(n trace.NodeID) []int {
	if int(n) >= len(c.members) {
		return nil
	}
	ids := make([]int, 0, len(c.members[n]))
	for id := range c.members[n] {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}
