package protocol

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"give2get/internal/g2gcrypto"
	"give2get/internal/message"
	"give2get/internal/sim"
	"give2get/internal/trace"
	"give2get/internal/wire"
)

// recorder implements Observer, collecting events for assertions.
type recorder struct {
	generated  []g2gcrypto.Digest
	replicated []replicaEvent
	delivered  map[g2gcrypto.Digest]sim.Time
	detected   []detectEvent
	tested     []testEvent
}

type replicaEvent struct {
	hash     g2gcrypto.Digest
	from, to trace.NodeID
	at       sim.Time
}

type detectEvent struct {
	accused   trace.NodeID
	reason    wire.MisbehaviorReason
	at        sim.Time
	ttlExpiry sim.Time
}

type testEvent struct {
	accused trace.NodeID
	passed  bool
}

func newRecorder() *recorder {
	return &recorder{delivered: make(map[g2gcrypto.Digest]sim.Time)}
}

func (r *recorder) Generated(h g2gcrypto.Digest, _ message.ID, _, _ trace.NodeID, _ sim.Time) {
	r.generated = append(r.generated, h)
}

func (r *recorder) Replicated(h g2gcrypto.Digest, from, to trace.NodeID, at sim.Time) {
	r.replicated = append(r.replicated, replicaEvent{hash: h, from: from, to: to, at: at})
}

func (r *recorder) Delivered(h g2gcrypto.Digest, at sim.Time) {
	if _, ok := r.delivered[h]; !ok {
		r.delivered[h] = at
	}
}

func (r *recorder) Detected(accused trace.NodeID, reason wire.MisbehaviorReason, _ g2gcrypto.Digest, at, ttl sim.Time) {
	r.detected = append(r.detected, detectEvent{accused: accused, reason: reason, at: at, ttlExpiry: ttl})
}

func (r *recorder) Tested(accused trace.NodeID, passed bool, _ sim.Time) {
	r.tested = append(r.tested, testEvent{accused: accused, passed: passed})
}

func (r *recorder) detectedNode(n trace.NodeID) bool {
	for _, d := range r.detected {
		if d.accused == n {
			return true
		}
	}
	return false
}

// world is a hand-driven cluster of protocol nodes for unit tests.
type world struct {
	t     *testing.T
	env   *Env
	rec   *recorder
	nodes []Node
	// beforeSession, if set, runs before each of a meeting's two sessions.
	beforeSession func()
}

// newWorld builds population nodes of the given kind; behaviors maps node id
// to a non-honest behavior.
func newWorld(t *testing.T, kind Kind, population int, params Params, behaviors map[trace.NodeID]Behavior) *world {
	t.Helper()
	sys, err := g2gcrypto.NewFast(population, 7)
	if err != nil {
		t.Fatal(err)
	}
	return newWorldOn(t, sys, kind, params, behaviors)
}

// newWorldOn is newWorld over the crypto system sys, one node per identity.
func newWorldOn(t *testing.T, sys g2gcrypto.System, kind Kind, params Params, behaviors map[trace.NodeID]Behavior) *world {
	t.Helper()
	population := sys.Nodes()
	rec := newRecorder()
	env, err := NewEnv(sys, params, rec, sim.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	w := &world{t: t, env: env, rec: rec}
	env.Broadcast = func(pom wire.Signed) {
		for _, n := range w.nodes {
			n.DeliverPoM(pom)
		}
	}
	for i := 0; i < population; i++ {
		id, err := sys.Identity(trace.NodeID(i))
		if err != nil {
			t.Fatal(err)
		}
		node, err := New(kind, env, id, behaviors[trace.NodeID(i)])
		if err != nil {
			t.Fatal(err)
		}
		w.nodes = append(w.nodes, node)
	}
	return w
}

// meet runs a full bidirectional encounter between nodes a and b at time at.
func (w *world) meet(at sim.Time, a, b trace.NodeID) {
	w.t.Helper()
	na, nb := w.nodes[a], w.nodes[b]
	na.ObserveMeeting(at, b)
	nb.ObserveMeeting(at, a)
	if na.Blacklisted(b) || nb.Blacklisted(a) {
		return
	}
	for _, s := range [...][2]trace.NodeID{{a, b}, {b, a}} {
		if w.beforeSession != nil {
			w.beforeSession()
		}
		w.nodes[s[0]].RunSession(at, w.nodes[s[1]])
	}
}

func (w *world) generate(at sim.Time, src, dst trace.NodeID) g2gcrypto.Digest {
	w.t.Helper()
	before := len(w.rec.generated)
	if err := w.nodes[src].Generate(at, dst, []byte("body")); err != nil {
		w.t.Fatalf("generate: %v", err)
	}
	return w.rec.generated[before]
}

func testParams() Params {
	return DefaultParams(30 * sim.Minute)
}

func TestKindNamesRoundTrip(t *testing.T) {
	for _, k := range []Kind{Epidemic, G2GEpidemic, DelegationFrequency,
		DelegationLastContact, G2GDelegationFrequency, G2GDelegationLastContact} {
		got, err := ParseKind(k.String())
		if err != nil {
			t.Errorf("ParseKind(%q): %v", k.String(), err)
		}
		if got != k {
			t.Errorf("round trip %v -> %v", k, got)
		}
	}
	if _, err := ParseKind("nope"); err == nil {
		t.Error("unknown name accepted")
	}
	if Kind(99).String() == "" || Deviation(99).String() == "" {
		t.Error("unknown enum has empty name")
	}
}

// TestParseKindErrorListsNames pins the unknown-protocol error: it must name
// every canonical protocol, in sorted order, so a CLI typo is self-healing.
func TestParseKindErrorListsNames(t *testing.T) {
	names := KindNames()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("KindNames not sorted: %v", names)
	}
	if len(names) != 6 {
		t.Fatalf("KindNames = %v", names)
	}
	_, err := ParseKind("bogus")
	if err == nil {
		t.Fatal("unknown name accepted")
	}
	for _, name := range names {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %q", err, name)
		}
	}
	if i, j := strings.Index(err.Error(), "delegation-frequency"), strings.Index(err.Error(), "epidemic"); i > j {
		t.Errorf("error names not in sorted order: %q", err)
	}
}

func TestKindPredicates(t *testing.T) {
	tests := []struct {
		kind       Kind
		g2g        bool
		delegation bool
		frequency  bool
	}{
		{kind: Epidemic},
		{kind: G2GEpidemic, g2g: true},
		{kind: DelegationFrequency, delegation: true, frequency: true},
		{kind: DelegationLastContact, delegation: true},
		{kind: G2GDelegationFrequency, g2g: true, delegation: true, frequency: true},
		{kind: G2GDelegationLastContact, g2g: true, delegation: true},
	}
	for _, tt := range tests {
		if tt.kind.IsG2G() != tt.g2g {
			t.Errorf("%v IsG2G = %v", tt.kind, tt.kind.IsG2G())
		}
		if tt.kind.IsDelegation() != tt.delegation {
			t.Errorf("%v IsDelegation = %v", tt.kind, tt.kind.IsDelegation())
		}
		if tt.kind.UsesFrequency() != tt.frequency {
			t.Errorf("%v UsesFrequency = %v", tt.kind, tt.kind.UsesFrequency())
		}
	}
}

func TestParamsValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Params)
	}{
		{name: "zero delta1", mutate: func(p *Params) { p.Delta1 = 0 }},
		{name: "delta2 below delta1", mutate: func(p *Params) { p.Delta2 = p.Delta1 / 2 }},
		{name: "zero relays", mutate: func(p *Params) { p.MaxRelays = 0 }},
		{name: "zero hmac iterations", mutate: func(p *Params) { p.HeavyHMACIterations = 0 }},
		{name: "zero frame", mutate: func(p *Params) { p.QualityFrame = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := testParams()
			tt.mutate(&p)
			if err := p.Validate(); err == nil {
				t.Error("invalid params accepted")
			}
		})
	}
	if err := testParams().Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
}

func TestBehaviorActiveAgainst(t *testing.T) {
	sameCommunity := func(a, b trace.NodeID) bool { return (a < 2) == (b < 2) }
	tests := []struct {
		name     string
		behavior Behavior
		self     trace.NodeID
		peer     trace.NodeID
		want     bool
	}{
		{name: "honest never deviates", behavior: Behavior{Deviation: Honest}, self: 0, peer: 1},
		{name: "plain dropper always", behavior: Behavior{Deviation: Dropper}, self: 0, peer: 1, want: true},
		{
			name:     "outsider dropper spares community",
			behavior: Behavior{Deviation: Dropper, OnlyOutsiders: true, SameCommunity: sameCommunity},
			self:     0, peer: 1,
		},
		{
			name:     "outsider dropper hits outsiders",
			behavior: Behavior{Deviation: Dropper, OnlyOutsiders: true, SameCommunity: sameCommunity},
			self:     0, peer: 3, want: true,
		},
		{
			name:     "outsider flag without membership info deviates",
			behavior: Behavior{Deviation: Liar, OnlyOutsiders: true},
			self:     0, peer: 1, want: true,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.behavior.activeAgainst(tt.self, tt.peer); got != tt.want {
				t.Errorf("activeAgainst = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestNewValidation(t *testing.T) {
	sys, err := g2gcrypto.NewFast(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	id, err := sys.Identity(0)
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewEnv(sys, testParams(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Kind(42), env, id, Behavior{}); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := New(Epidemic, nil, id, Behavior{}); err == nil {
		t.Error("nil env accepted")
	}
	if _, err := New(Epidemic, env, nil, Behavior{}); err == nil {
		t.Error("nil identity accepted")
	}
	if _, err := NewEnv(nil, testParams(), nil, nil); err == nil {
		t.Error("nil system accepted")
	}
	bad := testParams()
	bad.Delta1 = 0
	if _, err := NewEnv(sys, bad, nil, nil); err == nil {
		t.Error("invalid params accepted")
	}
}

// TestSessionProtocolMismatch pins the cross-kind guard: a run builds every
// node from one Kind, so a session across kinds is a bug, and it panics
// naming both kinds, whether the two nodes share a node type or not.
func TestSessionProtocolMismatch(t *testing.T) {
	sys, err := g2gcrypto.NewFast(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewEnv(sys, testParams(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	id0, _ := sys.Identity(0)
	id1, _ := sys.Identity(1)
	for _, pair := range [][2]Kind{
		{Epidemic, G2GEpidemic}, {G2GEpidemic, Epidemic},
		{DelegationLastContact, Epidemic}, {G2GDelegationLastContact, Epidemic},
		{Epidemic, DelegationFrequency}, {DelegationFrequency, DelegationLastContact},
		{G2GEpidemic, G2GDelegationFrequency}, {G2GDelegationFrequency, G2GEpidemic},
		{G2GEpidemic, G2GDelegationLastContact}, {G2GDelegationLastContact, G2GEpidemic},
		{G2GDelegationFrequency, G2GDelegationLastContact},
	} {
		a, err := New(pair[0], env, id0, Behavior{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := New(pair[1], env, id1, Behavior{})
		if err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				want := fmt.Sprintf("protocol: %v node 0 in a session with %v node 1", pair[0], pair[1])
				if msg, _ := recover().(string); msg != want {
					t.Errorf("panic %q, want %q", msg, want)
				}
			}()
			a.RunSession(0, b)
		}()
	}
}
