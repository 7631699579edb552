package protocol

import (
	"bytes"
	"maps"
	"reflect"
	"testing"
	"unsafe"

	"give2get/internal/g2gcrypto"
	"give2get/internal/obs"
	"give2get/internal/sim"
	"give2get/internal/trace"
	"give2get/internal/wire"
)

// providerCalls counts, by the kind byte that leads a signing input, the
// signatures and verifications that reach the crypto provider.
type providerCalls struct {
	signs, verifies map[wire.Kind]int
}

func newProviderCalls() *providerCalls {
	return &providerCalls{signs: make(map[wire.Kind]int), verifies: make(map[wire.Kind]int)}
}

func (p *providerCalls) reset() {
	clear(p.signs)
	clear(p.verifies)
}

func (p *providerCalls) total() int {
	n := 0
	for _, c := range p.signs {
		n += c
	}
	for _, c := range p.verifies {
		n += c
	}
	return n
}

func (p *providerCalls) clone() providerCalls {
	return providerCalls{signs: maps.Clone(p.signs), verifies: maps.Clone(p.verifies)}
}

// countingSystem passes every call to the provider it wraps, counting the
// signatures and verifications.
type countingSystem struct {
	g2gcrypto.System
	calls *providerCalls
}

func (s countingSystem) Identity(n trace.NodeID) (g2gcrypto.Identity, error) {
	id, err := s.System.Identity(n)
	if err != nil {
		return nil, err
	}
	return countingIdentity{Identity: id, calls: s.calls}, nil
}

func (s countingSystem) Verify(signer trace.NodeID, data []byte, sig g2gcrypto.Signature) bool {
	s.calls.verifies[wire.Kind(data[0])]++
	return s.System.Verify(signer, data, sig)
}

type countingIdentity struct {
	g2gcrypto.Identity
	calls *providerCalls
}

func (id countingIdentity) Sign(data []byte) g2gcrypto.Signature { return id.SignMemo(nil, data) }

func (id countingIdentity) SignMemo(m *g2gcrypto.SignMemo, data []byte) g2gcrypto.Signature {
	id.calls.signs[wire.Kind(data[0])]++
	return id.Identity.SignMemo(m, data)
}

// newMeteredWorld is newWorld with a telemetry registry attached as the
// engine attaches one: the System instrumented with the registry's crypto
// stats, which the Env charges too. Below the instrumentation it counts the
// calls that reach the provider.
func newMeteredWorld(t *testing.T, kind Kind, population int, params Params,
	behaviors map[trace.NodeID]Behavior) (*world, *obs.Metrics, *providerCalls) {

	t.Helper()
	fast, err := g2gcrypto.NewFast(population, 7)
	if err != nil {
		t.Fatal(err)
	}
	calls := newProviderCalls()
	m := obs.NewMetrics()
	w := newWorldOn(t, g2gcrypto.Instrument(countingSystem{System: fast, calls: calls}, &m.Crypto), kind, params, behaviors)
	w.env.SetMetrics(m)
	return w, m, calls
}

// ledger is everything a run has charged: each node's usage, the wire
// traffic by kind and in total, the crypto operation counts and the tests.
type ledger struct {
	usage                     []Usage
	wire                      map[string]obs.WireStat
	wireCount, wireBytes      int64
	signs, verifies           int64
	seals, opens              int64
	hmacs, hmacIterations     int64
	testsStarted, testsFailed int64
}

func takeLedger(w *world, m *obs.Metrics) ledger {
	s := m.Snapshot()
	l := ledger{
		wire:      s.Protocol.Wire,
		wireCount: s.Protocol.WireSizes.Count, wireBytes: s.Protocol.WireSizes.Sum,
		signs: s.Crypto.Sign.Count, verifies: s.Crypto.Verify.Count,
		seals: s.Crypto.Seal.Count, opens: s.Crypto.Open.Count,
		hmacs: s.Crypto.HeavyHMAC.Count, hmacIterations: s.Crypto.HeavyHMACIterations,
		testsStarted: s.Protocol.TestsStarted, testsFailed: s.Protocol.TestsFailed,
	}
	for _, n := range w.nodes {
		l.usage = append(l.usage, n.UsageSnapshot())
	}
	return l
}

// minus returns what was charged between before and l.
func (l ledger) minus(before ledger) ledger {
	d := ledger{
		wire:      make(map[string]obs.WireStat),
		wireCount: l.wireCount - before.wireCount, wireBytes: l.wireBytes - before.wireBytes,
		signs: l.signs - before.signs, verifies: l.verifies - before.verifies,
		seals: l.seals - before.seals, opens: l.opens - before.opens,
		hmacs: l.hmacs - before.hmacs, hmacIterations: l.hmacIterations - before.hmacIterations,
		testsStarted: l.testsStarted - before.testsStarted, testsFailed: l.testsFailed - before.testsFailed,
	}
	for k, w := range l.wire {
		b := before.wire[k]
		if w.Count != b.Count {
			d.wire[k] = obs.WireStat{Count: w.Count - b.Count, Bytes: w.Bytes - b.Bytes}
		}
	}
	for i, u := range l.usage {
		b := before.usage[i]
		d.usage = append(d.usage, Usage{
			Signatures:          u.Signatures - b.Signatures,
			Verifications:       u.Verifications - b.Verifications,
			HeavyHMACIterations: u.HeavyHMACIterations - b.HeavyHMACIterations,
			PayloadTxBytes:      u.PayloadTxBytes - b.PayloadTxBytes,
			PayloadRxBytes:      u.PayloadRxBytes - b.PayloadRxBytes,
			ControlMessages:     u.ControlMessages - b.ControlMessages,
			MemoryByteSeconds:   u.MemoryByteSeconds - b.MemoryByteSeconds,
		})
	}
	return d
}

// checkDeclineRecord is the G2G Epidemic case of
// TestSameInstantSessionsHitSignMemos. Nodes 0, 1 and 2 all hold all three
// messages, so every offer among them is declined. After node 0 meets node
// 1 at one instant, a meeting with node 2 at that instant offers node 0's
// copies again: their RELAY_RQSTs repeat the bytes just signed and hit
// their memos, and nothing is answered from a record made with another
// peer. A re-run of the first meeting at the same instant must then reach
// the provider not once, yet charge every node, the wire and the crypto
// counters exactly what the first run did. One second later is a new
// instant: both meetings reach the provider again exactly as they first did.
func checkDeclineRecord(t *testing.T) {
	w, m, calls := newMeteredWorld(t, G2GEpidemic, 7, testParams(), nil)
	w.generate(0, 0, 3)
	w.generate(0, 1, 4)
	w.generate(0, 2, 5)
	w.meet(sim.Minute, 0, 1)
	w.meet(sim.Minute+10*sim.Second, 2, 0)
	w.meet(sim.Minute+20*sim.Second, 2, 1)
	for _, n := range w.nodes[:3] {
		if got := custodyCount(n); got != 3 {
			t.Fatalf("node %d holds %d messages after the setup, want 3", n.ID(), got)
		}
	}
	log := newMemoLog()
	for _, n := range w.nodes {
		n.(*g2gNode).spyOnSigns(log)
	}
	replicated := len(w.rec.replicated)
	meet := func(at sim.Time, peer trace.NodeID) (ledger, providerCalls) {
		t.Helper()
		log.reset()
		calls.reset()
		before := takeLedger(w, m)
		w.meet(at, 0, peer)
		return takeLedger(w, m).minus(before), calls.clone()
	}
	rqst, decline := wire.KindRelayRequest.String(), wire.KindRelayDecline.String()

	// declined checks that a meeting exchanged only declined offers, each
	// signed at the provider.
	declined := func(name string, l ledger, calls providerCalls, offers int) {
		t.Helper()
		if len(l.wire) != 2 || l.wire[rqst].Count != int64(offers) || l.wire[decline].Count != int64(offers) {
			t.Fatalf("%s sent %v, want %d declined offers", name, l.wire, offers)
		}
		if calls.signs[wire.KindRelayRequest] != offers || calls.signs[wire.KindRelayDecline] != offers {
			t.Fatalf("%s signed %v at the provider, want %d RELAY_RQST and RELAY_DECLINE", name, calls.signs, offers)
		}
	}

	// A copy is offered to every peer it was not handed to: each node
	// offers the other the two messages it did not hand over itself.
	at := 2 * sim.Minute
	first, firstCalls := meet(at, 1)
	declined("first meeting", first, firstCalls, 4)
	// Node 0 offers node 2 only node 2's own message, which it offered node
	// 1 moments before; node 2 offers node 0 its copies of messages 0 and 1.
	second, secondCalls := meet(at, 2)
	declined("second peer at the same instant", second, secondCalls, 3)
	if log.hits[wire.KindRelayRequest] != 1 || log.misses[wire.KindRelayRequest] != 2 {
		t.Errorf("second peer: RELAY_RQST memo hits %d, misses %d; want node 0's one to hit, node 2's two to miss",
			log.hits[wire.KindRelayRequest], log.misses[wire.KindRelayRequest])
	}

	rerun, rerunCalls := meet(at, 1)
	if rerunCalls.total() != 0 {
		t.Errorf("same-instant re-run reached the provider: signs %v, verifies %v", rerunCalls.signs, rerunCalls.verifies)
	}
	if !reflect.DeepEqual(rerun, first) {
		t.Errorf("same-instant re-run charged\n  %+v\nwant the first meeting's\n  %+v", rerun, first)
	}

	for _, pass := range []struct {
		peer        trace.NodeID
		want        ledger
		wantCalls   providerCalls
		wantRqstHit int
	}{
		{1, first, firstCalls, 0},
		{2, second, secondCalls, 1},
	} {
		got, gotCalls := meet(at+sim.Second, pass.peer)
		if !reflect.DeepEqual(gotCalls, pass.wantCalls) || !reflect.DeepEqual(got, pass.want) {
			t.Errorf("one second later, peer %d: provider %+v and charges %+v; want %+v and %+v",
				pass.peer, gotCalls, got, pass.wantCalls, pass.want)
		}
		if hits := log.hits[wire.KindRelayRequest]; hits != pass.wantRqstHit {
			t.Errorf("one second later, peer %d: %d RELAY_RQST memo hits, want %d", pass.peer, hits, pass.wantRqstHit)
		}
	}
	if len(w.rec.replicated) != replicated {
		t.Fatal("a copy changed hands; the meetings no longer repeat one exchange")
	}
}

// TestOfferRecordSkipsAcceptedOffers pins that only a decline is recorded:
// a repeat of an offer the peer accepted, at the same instant, is exchanged
// in full and accepted again (a handoff can fail after the RELAY_OK).
func TestOfferRecordSkipsAcceptedOffers(t *testing.T) {
	w, _, calls := newMeteredWorld(t, G2GEpidemic, 4, testParams(), nil)
	h := w.generate(0, 0, 3)
	a, b := w.nodes[0].(*g2gNode), w.nodes[1].(*g2gNode)
	for i := 0; i < 2; i++ {
		calls.reset()
		if !a.requestRelay(sim.Minute, a.custody[h], b) {
			t.Fatalf("offer %d of an unseen message declined", i)
		}
		if calls.signs[wire.KindRelayRequest] != 1 || calls.signs[wire.KindRelayOK] != 1 {
			t.Fatalf("offer %d reached the provider with %v, want one RELAY_RQST and one RELAY_OK", i, calls.signs)
		}
	}
}

// TestOfferHandshakeAllocs pins the allocations of G2G Epidemic's offer
// handshake, with telemetry attached as in a run: a same-instant repeat of
// a declined offer allocates nothing, and a first decline at most the
// RELAY_DECLINE body its peer boxes. Signature arena chunks amortize below
// one allocation per call.
func TestOfferHandshakeAllocs(t *testing.T) {
	w, _, _ := newMeteredWorld(t, G2GEpidemic, 4, testParams(), nil)
	h := w.generate(0, 0, 3)
	w.meet(sim.Minute, 0, 1) // node 1 takes the message and declines it after
	a, b := w.nodes[0].(*g2gNode), w.nodes[1].(*g2gNode)
	c := a.custody[h]
	now := 2 * sim.Minute
	if a.requestRelay(now, c, b) {
		t.Fatal("offer of a message the peer holds accepted")
	}
	if got := testing.AllocsPerRun(200, func() { a.requestRelay(now, c, b) }); got != 0 {
		t.Errorf("same-instant repeat of a declined offer: %v allocs, want 0", got)
	}
	if got := testing.AllocsPerRun(200, func() {
		now += sim.Millisecond
		a.requestRelay(now, c, b)
	}); got > 1 {
		t.Errorf("first decline at an instant: %v allocs, want at most 1", got)
	}
}

// TestCustodyCopySize pins a copy's size on 64-bit platforms: a node holds
// one per message it has handled, until Δ2.
func TestCustodyCopySize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(g2gCustody{}); got != 144 {
		t.Errorf("sizeof(g2gCustody) = %d bytes, want 144", got)
	}
}

// FuzzDeclineRecord drives two G2G Epidemic worlds through one random
// script of generations, meetings and clock steps. Several meetings share
// an instant, as the engine's cascades make them, and the clock crosses Δ1
// and Δ2, so copies are offered, declined, handed on, tested and expired.
// Before each session of the reference world a test-local helper clears
// every offer record, so there every offer is exchanged in full. Per-node
// usage, wire traffic by kind, crypto counts, observer records, every
// node's state (g2gStateOf: custody copies, pending tests and transfers)
// and the RNG position must agree.
//
// population picks 3–6 nodes and, with bit 3, makes the last a dropper.
// Each script byte pair is one step: a generation, a clock step, or a
// meeting.
func FuzzDeclineRecord(f *testing.F) {
	// Six nodes: two sources, an exchange repeated at one instant and then
	// one step later, a third node, the Δ1 tests and the Δ2 expiry.
	f.Add(uint8(3), []byte{24, 0, 16, 1, 2, 0, 2, 0, 2, 0, 1, 0, 2, 0, 2, 0, 10, 0, 2, 1, 2, 1, 2, 0,
		1, 7, 2, 0, 10, 0, 1, 7, 1, 7, 2, 0})
	// The same with node 5 a dropper that node 0 hands its messages to.
	f.Add(uint8(11), []byte{24, 0, 16, 1, 2, 0, 34, 0, 2, 0, 2, 0, 34, 0, 1, 0, 2, 0, 34, 0, 2, 0,
		1, 7, 34, 0, 2, 0, 34, 0, 1, 7, 1, 7, 2, 0})
	// Four nodes: one message spread round a triangle, whose meetings
	// repeat twice at one instant.
	f.Add(uint8(1), []byte{16, 0, 2, 0, 2, 1, 10, 0, 2, 0, 2, 1, 10, 0, 2, 0, 2, 1, 10, 0, 1, 2, 2, 0, 2, 0})
	f.Fuzz(func(t *testing.T, population uint8, script []byte) {
		n := 3 + int(population%4)
		var behaviors map[trace.NodeID]Behavior
		if population&8 != 0 {
			behaviors = map[trace.NodeID]Behavior{trace.NodeID(n - 1): {Deviation: Dropper}}
		}
		params := DefaultParams(2 * sim.Minute)
		params.HeavyHMACIterations = 4
		w, m, _ := newMeteredWorld(t, G2GEpidemic, n, params, behaviors)
		ref, refM, _ := newMeteredWorld(t, G2GEpidemic, n, params, behaviors)
		ref.beforeSession = func() {
			for _, node := range ref.nodes {
				for _, c := range node.(*g2gNode).custody {
					c.offer = nil
				}
			}
		}
		if len(script) > 96 {
			script = script[:96]
		}
		now := sim.Second
		for i := 0; i+1 < len(script); i += 2 {
			op, arg := script[i], int(script[i+1])
			a := trace.NodeID(arg % n)
			b := trace.NodeID((arg + 1 + int(op>>3)%(n-1)) % n)
			switch op % 8 {
			case 0:
				w.generate(now, a, b)
				ref.generate(now, a, b)
			case 1:
				now += sim.Time(1+arg%8) * 20 * sim.Second
			default:
				w.meet(now, a, b)
				ref.meet(now, a, b)
			}
		}
		if got, want := takeLedger(w, m), takeLedger(ref, refM); !reflect.DeepEqual(got, want) {
			t.Fatalf("charges diverged from the reference:\n  got  %+v\n  want %+v", got, want)
		}
		if !reflect.DeepEqual(w.rec, ref.rec) {
			t.Fatalf("observer records diverged:\n  got  %+v\n  want %+v", w.rec, ref.rec)
		}
		for i, node := range w.nodes {
			if got, want := g2gStateOf(node.(*g2gNode)), g2gStateOf(ref.nodes[i].(*g2gNode)); !reflect.DeepEqual(got, want) {
				t.Fatalf("node %d state diverged from the reference:\n  got  %+v\n  want %+v", i, got, want)
			}
		}
		// Equal positions draw equal values: bytes first, which would
		// expose a difference in a partly used draw, then whole draws.
		got, want := make([]byte, 13), make([]byte, 13)
		w.env.RNG.Bytes(got)
		ref.env.RNG.Bytes(want)
		if !bytes.Equal(got, want) || w.env.RNG.Int63() != ref.env.RNG.Int63() {
			t.Fatal("RNG position diverged from the reference")
		}
	})
}

// g2gState is what a G2G node carries from one session to the next: every
// custody copy with its persistent fields (the offer record, a cache, left
// out), the pending tests and transfers, and the derived orderings and
// counters, which must agree as well.
type g2gState struct {
	usage      Usage
	blacklist  map[trace.NodeID]struct{}
	seq        uint32
	custody    map[g2gcrypto.Digest]g2gCustody
	tests      map[g2gcrypto.Digest][]pendingTest
	pendingIn  map[g2gcrypto.Digest]pendingTransfer
	testsOrder []g2gcrypto.Digest
	relayable  []g2gcrypto.Digest
	mem        int64
	expireAt   sim.Time
}

func g2gStateOf(n *g2gNode) g2gState {
	st := g2gState{
		usage: n.usage, blacklist: n.blacklist, seq: n.seq,
		custody:    make(map[g2gcrypto.Digest]g2gCustody, len(n.custody)),
		tests:      make(map[g2gcrypto.Digest][]pendingTest, len(n.tests)),
		pendingIn:  make(map[g2gcrypto.Digest]pendingTransfer, len(n.pendingIn)),
		testsOrder: n.testsOrder,
		mem:        n.mem, expireAt: n.expireAt,
	}
	for h, c := range n.custody {
		cp := *c
		cp.offer = nil
		st.custody[h] = cp
	}
	for h, list := range n.tests {
		for _, pt := range list {
			st.tests[h] = append(st.tests[h], *pt)
		}
	}
	for h, p := range n.pendingIn {
		st.pendingIn[h] = *p
	}
	for _, c := range n.relayable {
		st.relayable = append(st.relayable, c.hash)
	}
	return st
}
