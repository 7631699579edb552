// Package kclique implements k-clique percolation community detection
// (Palla et al., Nature 2005), the algorithm the paper uses to define the
// communities behind "selfishness with outsiders" (Section V-A).
//
// The contact graph connects two nodes when they met at least MinContacts
// times. Communities are the connected components of the clique graph:
// maximal cliques of size >= k are adjacent when they share k-1 or more
// nodes, and a community is the union of the nodes of all cliques in one
// component. Communities may overlap; a node can belong to several.
package kclique

import (
	"errors"
	"fmt"
	"sort"

	"give2get/internal/trace"
)

// Options configures detection.
type Options struct {
	// K is the clique size parameter; the paper (and Bubble Rap) use k = 3.
	K int
	// MinContacts is the number of meetings required before an edge appears
	// in the contact graph.
	MinContacts int
}

// DefaultOptions mirror the settings used throughout the experiments.
func DefaultOptions() Options {
	return Options{K: 3, MinContacts: 3}
}

func (o Options) validate() error {
	if o.K < 2 {
		return errors.New("kclique: K must be at least 2")
	}
	if o.MinContacts < 1 {
		return errors.New("kclique: MinContacts must be at least 1")
	}
	return nil
}

// Communities is the result of detection: a set of possibly overlapping
// node groups.
type Communities struct {
	groups  [][]trace.NodeID
	members []map[int]struct{} // node -> set of community indices
}

// DetectAuto runs k-clique percolation with an adaptive edge threshold. On
// long, dense traces a fixed small threshold connects every pair that ever
// met a handful of times and percolation degenerates into one giant
// community; only the strong (intra-community) ties should become edges.
// The threshold is chosen by scanning upper quantiles of the per-pair
// contact counts and keeping the decomposition that maximizes
// coverage × (1 − 1/communities): non-trivial community structure covering
// as many nodes as possible.
func DetectAuto(t *trace.Trace, k int) (*Communities, error) {
	counts := trace.ContactCounts(t)
	values := make([]int, 0, len(counts))
	for _, n := range counts {
		values = append(values, n)
	}
	if len(values) == 0 {
		return Detect(t, Options{K: k, MinContacts: 1})
	}
	sort.Ints(values)

	var best *Communities
	bestScore := -1.0
	for _, q := range []float64{0.70, 0.75, 0.80, 0.85, 0.90} {
		idx := int(float64(len(values)) * q)
		if idx >= len(values) {
			idx = len(values) - 1
		}
		threshold := values[idx]
		if threshold < 1 {
			threshold = 1
		}
		comms, err := Detect(t, Options{K: k, MinContacts: threshold})
		if err != nil {
			return nil, err
		}
		score := 0.0
		if comms.Len() >= 2 {
			covered := make(map[trace.NodeID]struct{})
			for i := 0; i < comms.Len(); i++ {
				for _, n := range comms.Group(i) {
					covered[n] = struct{}{}
				}
			}
			score = float64(len(covered)) * (1 - 1/float64(comms.Len()))
		}
		if score > bestScore {
			best, bestScore = comms, score
		}
	}
	return best, nil
}

// Detect runs k-clique percolation over the trace's contact graph.
func Detect(t *trace.Trace, opts Options) (*Communities, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	adj := buildAdjacency(t, opts.MinContacts)
	cliques := maximalCliques(adj, t.Nodes())

	// Keep cliques with at least K nodes; percolate on (K-1)-node overlaps.
	var big [][]trace.NodeID
	for _, c := range cliques {
		if len(c) >= opts.K {
			big = append(big, c)
		}
	}
	parent := make([]int, len(big))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}
	for i := 0; i < len(big); i++ {
		for j := i + 1; j < len(big); j++ {
			if overlap(big[i], big[j]) >= opts.K-1 {
				union(i, j)
			}
		}
	}

	byRoot := make(map[int]map[trace.NodeID]struct{})
	for i, clique := range big {
		root := find(i)
		set, ok := byRoot[root]
		if !ok {
			set = make(map[trace.NodeID]struct{})
			byRoot[root] = set
		}
		for _, n := range clique {
			set[n] = struct{}{}
		}
	}

	result := &Communities{members: make([]map[int]struct{}, t.Nodes())}
	for i := range result.members {
		result.members[i] = make(map[int]struct{})
	}
	roots := make([]int, 0, len(byRoot))
	for root := range byRoot {
		roots = append(roots, root)
	}
	sort.Ints(roots) // deterministic community numbering
	for _, root := range roots {
		id := len(result.groups)
		nodes := make([]trace.NodeID, 0, len(byRoot[root]))
		for n := range byRoot[root] {
			nodes = append(nodes, n)
			result.members[n][id] = struct{}{}
		}
		sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
		result.groups = append(result.groups, nodes)
	}
	return result, nil
}

// Len returns the number of detected communities.
func (c *Communities) Len() int { return len(c.groups) }

// Group returns the sorted member list of community id. The slice is shared;
// callers must not modify it.
func (c *Communities) Group(id int) []trace.NodeID { return c.groups[id] }

// SameCommunity reports whether a and b share at least one community. Nodes
// that belong to no community share a community with nobody, including each
// other.
func (c *Communities) SameCommunity(a, b trace.NodeID) bool {
	if int(a) >= len(c.members) || int(b) >= len(c.members) {
		return false
	}
	small, large := c.members[a], c.members[b]
	if len(small) > len(large) {
		small, large = large, small
	}
	for id := range small {
		if _, ok := large[id]; ok {
			return true
		}
	}
	return false
}

// String summarizes the communities for logs and CLI output.
func (c *Communities) String() string {
	out := fmt.Sprintf("%d communities", len(c.groups))
	for i, g := range c.groups {
		out += fmt.Sprintf("; #%d=%v", i, g)
	}
	return out
}

// overlap counts the nodes two sorted-or-unsorted cliques share.
func overlap(a, b []trace.NodeID) int {
	set := make(map[trace.NodeID]struct{}, len(a))
	for _, n := range a {
		set[n] = struct{}{}
	}
	count := 0
	for _, n := range b {
		if _, ok := set[n]; ok {
			count++
		}
	}
	return count
}

func buildAdjacency(t *trace.Trace, minContacts int) []map[int]struct{} {
	counts := trace.ContactCounts(t)
	adj := make([]map[int]struct{}, t.Nodes())
	for i := range adj {
		adj[i] = make(map[int]struct{})
	}
	for pair, n := range counts {
		if n >= minContacts {
			adj[pair.A][int(pair.B)] = struct{}{}
			adj[pair.B][int(pair.A)] = struct{}{}
		}
	}
	return adj
}

// maximalCliques enumerates all maximal cliques with Bron–Kerbosch and
// pivoting. Node counts in these traces are small (tens), so the worst-case
// exponential bound is irrelevant in practice.
func maximalCliques(adj []map[int]struct{}, n int) [][]trace.NodeID {
	var out [][]trace.NodeID
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	var bk func(r, p, x []int)
	bk = func(r, p, x []int) {
		if len(p) == 0 && len(x) == 0 {
			clique := make([]trace.NodeID, len(r))
			for i, v := range r {
				clique[i] = trace.NodeID(v)
			}
			out = append(out, clique)
			return
		}
		pivot := choosePivot(adj, p, x)
		candidates := make([]int, 0, len(p))
		for _, v := range p {
			if _, ok := adj[pivot][v]; !ok {
				candidates = append(candidates, v)
			}
		}
		for _, v := range candidates {
			var np, nx []int
			for _, u := range p {
				if _, ok := adj[v][u]; ok {
					np = append(np, u)
				}
			}
			for _, u := range x {
				if _, ok := adj[v][u]; ok {
					nx = append(nx, u)
				}
			}
			bk(append(r, v), np, nx)
			p = removeInt(p, v)
			x = append(x, v)
		}
	}
	bk(nil, all, nil)
	return out
}

// choosePivot picks the vertex of p ∪ x with the most neighbours in p,
// minimizing the branching of Bron–Kerbosch.
func choosePivot(adj []map[int]struct{}, p, x []int) int {
	best, bestDeg := -1, -1
	consider := func(v int) {
		deg := 0
		for _, u := range p {
			if _, ok := adj[v][u]; ok {
				deg++
			}
		}
		if deg > bestDeg {
			best, bestDeg = v, deg
		}
	}
	for _, v := range p {
		consider(v)
	}
	for _, v := range x {
		consider(v)
	}
	if best == -1 {
		return 0
	}
	return best
}

func removeInt(s []int, v int) []int {
	for i, u := range s {
		if u == v {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}
