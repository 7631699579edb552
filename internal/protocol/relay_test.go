package protocol

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"give2get/internal/g2gcrypto"
	"give2get/internal/sim"
	"give2get/internal/trace"
)

// relayView is what the relay phase's per-copy eligibility predicate read
// before the relayable list replaced it.
type relayView struct {
	genAt                     sim.Time
	dropped, isDest, isSource bool
	hasRaw                    bool
	relayCount                int
	relayedTo                 []trace.NodeID
}

// eligible is that predicate, kept here as the scan's reference.
func (v relayView) eligible(p Params, now sim.Time, peer trace.NodeID, blacklisted bool) bool {
	if v.dropped || v.isDest || now >= v.genAt.Add(p.Delta1) {
		return false
	}
	if !v.isSource && v.relayCount >= p.MaxRelays {
		return false
	}
	if slices.Contains(v.relayedTo, peer) || blacklisted {
		return false
	}
	return v.hasRaw
}

// byHash returns the keys of a custody map in byte-wise order, the order the
// relay phase has always offered copies in.
func byHash[T any](m map[g2gcrypto.Digest]T) []g2gcrypto.Digest {
	keys := make([]g2gcrypto.Digest, 0, len(m))
	for h := range m {
		keys = append(keys, h)
	}
	slices.SortFunc(keys, func(a, b g2gcrypto.Digest) int { return bytes.Compare(a[:], b[:]) })
	return keys
}

// relayViews returns a G2G node's copies in hash order, with their views,
// and the node's parameters.
func relayViews(t *testing.T, n Node) ([]g2gcrypto.Digest, []relayView, Params) {
	t.Helper()
	var views []relayView
	switch n := n.(type) {
	case *g2gNode:
		hashes := byHash(n.custody)
		for _, h := range hashes {
			c := n.custody[h]
			views = append(views, relayView{c.genAt, c.dropped, c.isDest, c.isSource, c.raw != nil, int(c.relayCount), c.relayedTo})
		}
		return hashes, views, n.env.Params
	}
	t.Fatalf("%T is not a G2G node", n)
	return nil, nil, Params{}
}

// custodyWalk lists, in hash order, the copies the relay phase offered peer
// at now when it walked every copy in custody.
func custodyWalk(t *testing.T, n Node, now sim.Time, peer trace.NodeID) []g2gcrypto.Digest {
	t.Helper()
	hashes, views, p := relayViews(t, n)
	var out []g2gcrypto.Digest
	for i, v := range views {
		if v.eligible(p, now, peer, n.Blacklisted(peer)) {
			out = append(out, hashes[i])
		}
	}
	return out
}

// scanOffers lists the copies a relay phase at now offers peer.
func scanOffers(t *testing.T, n Node, now sim.Time, peer trace.NodeID) []g2gcrypto.Digest {
	t.Helper()
	var out []g2gcrypto.Digest
	switch n := n.(type) {
	case *g2gNode:
		n.eachOffer(now, peer, func(c *g2gCustody) { out = append(out, c.hash) })
	default:
		t.Fatalf("%T is not a G2G node", n)
	}
	return out
}

// scanStep is one action of a relay-scan script: generate (gen), meet, run
// every node's expiry step (expire), or nothing (check). Every step ends
// with the scan checked against the custody walk at its instant.
type scanStep struct {
	at   sim.Time
	what string
	a, b trace.NodeID
}

// relayScanScript drives a copy through every way it stops being relayable:
// relays up to the budget, a dropper, a cheater, a destination delivery, a
// PoM, Δ1 and expiry at Δ2.
func relayScanScript(kind Kind, p Params) []scanStep {
	if kind == G2GEpidemic {
		return []scanStep{
			{at: sim.Minute, what: "gen", a: 0, b: 5},
			{at: 2 * sim.Minute, what: "meet", a: 0, b: 1},
			{at: 3 * sim.Minute, what: "meet", a: 0, b: 2}, // the dropper
			{at: 4 * sim.Minute, what: "meet", a: 1, b: 3},
			{at: 5 * sim.Minute, what: "meet", a: 1, b: 4}, // 1 spends its budget
			{at: 6 * sim.Minute, what: "gen", a: 3, b: 7},
			{at: 7 * sim.Minute, what: "meet", a: 3, b: 5}, // delivery
			{at: 8 * sim.Minute, what: "meet", a: 5, b: 6},
			{at: 9 * sim.Minute, what: "meet", a: 6, b: 1},
			{at: sim.Minute + p.Delta1 - 1, what: "check"},
			{at: sim.Minute + p.Delta1, what: "check"},
			{at: sim.Minute + p.Delta1 + sim.Minute, what: "meet", a: 0, b: 2}, // PoM
			{at: 6*sim.Minute + p.Delta1 - 1, what: "meet", a: 3, b: 2},
			{at: 6*sim.Minute + p.Delta1, what: "check"},
			{at: sim.Minute + p.Delta2, what: "expire"},
			{at: sim.Minute + p.Delta2 + sim.Minute, what: "gen", a: 5, b: 0},
			{at: sim.Minute + p.Delta2 + 2*sim.Minute, what: "meet", a: 5, b: 6},
			{at: 6*sim.Minute + p.Delta2, what: "expire"},
		}
	}
	return []scanStep{
		{at: frame1, what: "gen", a: 0, b: 5},
		{at: frame1 + 1*sim.Minute, what: "meet", a: 0, b: 4}, // fails to qualify
		{at: frame1 + 2*sim.Minute, what: "meet", a: 0, b: 6}, // the dropper
		{at: frame1 + 3*sim.Minute, what: "meet", a: 0, b: 1}, // the cheater
		{at: frame1 + 4*sim.Minute, what: "gen", a: 2, b: 7},
		{at: frame1 + 5*sim.Minute, what: "meet", a: 1, b: 2},
		{at: frame1 + 6*sim.Minute, what: "meet", a: 1, b: 3}, // cheater spends its budget
		{at: frame1 + 7*sim.Minute, what: "meet", a: 3, b: 5}, // delivery behind a decoy
		{at: frame1 + p.Delta1 - 1, what: "check"},
		{at: frame1 + p.Delta1, what: "check"},
		{at: frame1 + p.Delta1 + sim.Minute, what: "meet", a: 0, b: 6},   // PoM: dropper
		{at: frame1 + p.Delta1 + 2*sim.Minute, what: "meet", a: 0, b: 1}, // PoM: cheater
		{at: frame1 + p.Delta1 + 3*sim.Minute, what: "meet", a: 2, b: 1},
		{at: frame1 + 4*sim.Minute + p.Delta1, what: "check"},
		{at: frame1 + p.Delta2, what: "expire"},
		{at: frame1 + p.Delta2 + sim.Minute, what: "gen", a: 3, b: 5},
		{at: frame1 + p.Delta2 + 2*sim.Minute, what: "meet", a: 3, b: 4},
	}
}

// TestRelayableMatchesCustodyWalk is the oracle for the relayable scan:
// after every step of a script that retires copies every possible way,
// each node offers each peer exactly the copies, in order, that the old
// walk over every custody copy with the old predicate offered. A fan-out
// of one spends a relay's budget while it still holds the payload.
func TestRelayableMatchesCustodyWalk(t *testing.T) {
	for _, kind := range []Kind{G2GEpidemic, G2GDelegationFrequency} {
		for _, maxRelays := range []int{2, 1} {
			t.Run(fmt.Sprintf("%v/max-relays-%d", kind, maxRelays), func(t *testing.T) {
				params := testParams()
				params.MaxRelays = maxRelays
				checkRelayScan(t, kind, params)
			})
		}
	}
}

func checkRelayScan(t *testing.T, kind Kind, params Params) {
	dropper, cheater := trace.NodeID(2), trace.NodeID(4)
	if kind != G2GEpidemic {
		dropper, cheater = 6, 1
	}
	behaviors := map[trace.NodeID]Behavior{dropper: {Deviation: Dropper}, cheater: {Deviation: Cheater}}
	w := newWorld(t, kind, 8, params, behaviors)
	if kind != G2GEpidemic {
		primeQuality(w, 0, 5, 1, 0, sim.Minute)             // source: quality 1
		primeQuality(w, 6, 5, 2, 5*sim.Minute, sim.Minute)  // dropper: 2
		primeQuality(w, 1, 5, 3, 10*sim.Minute, sim.Minute) // cheater: 3
		primeQuality(w, 2, 5, 1, 15*sim.Minute, sim.Minute)
		primeQuality(w, 3, 5, 1, 20*sim.Minute, sim.Minute)
		primeQuality(w, 1, 7, 1, 25*sim.Minute, sim.Minute)
	}
	offered, retired := 0, false
	for i, s := range relayScanScript(kind, params) {
		switch s.what {
		case "gen":
			w.generate(s.at, s.a, s.b)
		case "meet":
			w.meet(s.at, s.a, s.b)
		case "expire":
			expireAll(w, s.at)
		}
		for a, n := range w.nodes {
			for b := range w.nodes {
				if a == b {
					continue
				}
				want := custodyWalk(t, n, s.at, trace.NodeID(b))
				got := scanOffers(t, n, s.at, trace.NodeID(b))
				if !slices.Equal(got, want) {
					t.Fatalf("step %d (%s at %v): node %d offers node %d %d copies %x, the custody walk %d %x",
						i, s.what, s.at, a, b, len(got), got, len(want), want)
				}
				offered += len(got)
			}
			if len(scanList(n)) < custodyCount(n) {
				retired = true
			}
		}
	}
	if offered == 0 || !retired {
		t.Fatalf("script offered %d copies and retired any: %v; it no longer exercises the scan", offered, retired)
	}
	if !w.rec.detectedNode(dropper) {
		t.Error("the script's dropper went undetected")
	}
}

// scanList returns the relayable list of a G2G node as hashes.
func scanList(n Node) []g2gcrypto.Digest {
	var out []g2gcrypto.Digest
	switch n := n.(type) {
	case *g2gNode:
		for _, c := range n.relayable {
			out = append(out, c.hash)
		}
	}
	return out
}

// custodyCount is the number of copies a G2G node holds.
func custodyCount(n Node) int {
	switch n := n.(type) {
	case *g2gNode:
		return len(n.custody)
	}
	return 0
}

// TestSameInstantSessionsHitSignMemos re-runs one session pair at one
// instant, as the engine's cascades do, under both crypto providers. A
// repeat of an exchange already made at that instant, between the same two
// nodes, about the same copy, is answered from the copy's offer record:
// under G2G Epidemic a declined offer (see checkDeclineRecord), under G2G
// Delegation an FQ exchange whose answer has not changed (see
// checkFQRecord). The same copy offered to another peer at that instant
// signs its request through the record's memo, which hits, and every
// verify follows the sign of the envelope it checks, so the scratch's last
// signature answers it. The memos sit above the provider, so a hit never
// reaches it: the real provider's Ed25519 is spared exactly what the fast
// provider's HMAC is.
func TestSameInstantSessionsHitSignMemos(t *testing.T) {
	for _, c := range []struct {
		kind  Kind
		check func(*testing.T, provider)
	}{{G2GEpidemic, checkDeclineRecord}, {G2GDelegationFrequency, checkFQRecord}} {
		t.Run(c.kind.String(), func(t *testing.T) {
			for _, p := range []struct {
				name   string
				newSys provider
			}{{"fast", g2gcrypto.NewFast}, {"real", g2gcrypto.NewReal}} {
				t.Run(p.name, func(t *testing.T) { c.check(t, p.newSys) })
			}
		})
	}
}
