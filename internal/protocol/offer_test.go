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

// countingIdentity is comparable, as the System contract requires: two
// wrappers of one identity counting into one log are equal.
type countingIdentity struct {
	g2gcrypto.Identity
	calls *providerCalls
}

func (id countingIdentity) Sign(data []byte) g2gcrypto.Signature {
	id.calls.signs[wire.Kind(data[0])]++
	return id.Identity.Sign(data)
}

// provider makes a crypto system for a population from a seed, as
// g2gcrypto.NewFast and NewReal do.
type provider func(nodes int, seed int64) (g2gcrypto.System, error)

// newMeteredWorld is newWorld with a telemetry registry attached as the
// engine attaches one: the System instrumented with the registry's crypto
// stats, which the Env charges too, and a span recorder. Below the
// instrumentation it counts the calls that reach the provider.
func newMeteredWorld(t *testing.T, kind Kind, population int, params Params,
	behaviors map[trace.NodeID]Behavior) (*world, *obs.Metrics, *providerCalls) {

	t.Helper()
	return newMeteredWorldBy(t, g2gcrypto.NewFast, kind, population, params, behaviors)
}

// newMeteredWorldBy is newMeteredWorld on the system newSys sets up.
func newMeteredWorldBy(t *testing.T, newSys provider, kind Kind, population int, params Params,
	behaviors map[trace.NodeID]Behavior) (*world, *obs.Metrics, *providerCalls) {

	t.Helper()
	sys, err := newSys(population, 7)
	if err != nil {
		t.Fatal(err)
	}
	return newMeteredWorldOn(t, sys, kind, params, behaviors)
}

// newMeteredWorldOn is newMeteredWorld over the crypto system sys.
func newMeteredWorldOn(t *testing.T, sys g2gcrypto.System, kind Kind, params Params,
	behaviors map[trace.NodeID]Behavior) (*world, *obs.Metrics, *providerCalls) {

	t.Helper()
	calls := newProviderCalls()
	m := obs.NewMetrics()
	w := newWorldOn(t, g2gcrypto.Instrument(countingSystem{System: sys, calls: calls}, &m.Crypto), kind, params, behaviors)
	w.env.SetMetrics(m)
	w.env.SetSpans(obs.NewSpanRecorder(&m.Spans))
	return w, m, calls
}

// ledger is everything a run has charged: each node's usage, the wire
// traffic by kind and in total, the crypto operation counts, the tests and
// the span counts.
type ledger struct {
	usage                     []Usage
	wire                      map[string]obs.WireStat
	wireCount, wireBytes      int64
	signs, verifies           int64
	seals, opens              int64
	hmacs, hmacIterations     int64
	testsStarted, testsFailed int64
	spans                     map[string]int64
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
		spans: make(map[string]int64),
	}
	for _, n := range w.nodes {
		l.usage = append(l.usage, n.UsageSnapshot())
	}
	for _, sp := range s.Spans {
		l.spans[sp.Name] = sp.Count
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
		spans: make(map[string]int64),
	}
	for k, n := range l.spans {
		if n != before.spans[k] {
			d.spans[k] = n - before.spans[k]
		}
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
func checkDeclineRecord(t *testing.T, newSys provider) {
	w, m, calls := newMeteredWorldBy(t, newSys, G2GEpidemic, 7, testParams(), nil)
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
	replicated := len(w.rec.replicated)
	meet := func(at sim.Time, peer trace.NodeID) (ledger, providerCalls) {
		t.Helper()
		calls.reset()
		before := takeLedger(w, m)
		w.meet(at, 0, peer)
		return takeLedger(w, m).minus(before), calls.clone()
	}
	rqst, decline := wire.KindRelayRequest.String(), wire.KindRelayDecline.String()

	// declined checks that a meeting exchanged only declined offers, of
	// whose RELAY_RQSTs the memos answered rqstHits; every RELAY_DECLINE is
	// signed at the provider, and no verify reaches it.
	declined := func(name string, l ledger, calls providerCalls, offers, rqstHits int) {
		t.Helper()
		if len(l.wire) != 2 || l.wire[rqst].Count != int64(offers) || l.wire[decline].Count != int64(offers) {
			t.Fatalf("%s sent %v, want %d declined offers", name, l.wire, offers)
		}
		if calls.signs[wire.KindRelayRequest] != offers-rqstHits || calls.signs[wire.KindRelayDecline] != offers {
			t.Fatalf("%s signed %v at the provider, want %d RELAY_RQST and %d RELAY_DECLINE",
				name, calls.signs, offers-rqstHits, offers)
		}
		if len(calls.verifies) != 0 {
			t.Fatalf("%s verified %v at the provider, want none", name, calls.verifies)
		}
	}

	// A copy is offered to every peer it was not handed to: each node
	// offers the other the two messages it did not hand over itself.
	at := 2 * sim.Minute
	first, firstCalls := meet(at, 1)
	declined("first meeting", first, firstCalls, 4, 0)
	// Node 0 offers node 2 only node 2's own message, which it offered node
	// 1 moments before; node 2 offers node 0 its copies of messages 0 and 1.
	second, secondCalls := meet(at, 2)
	declined("second peer at the same instant", second, secondCalls, 3, 1)

	rerun, rerunCalls := meet(at, 1)
	if rerunCalls.total() != 0 {
		t.Errorf("same-instant re-run reached the provider: signs %v, verifies %v", rerunCalls.signs, rerunCalls.verifies)
	}
	if !reflect.DeepEqual(rerun, first) {
		t.Errorf("same-instant re-run charged\n  %+v\nwant the first meeting's\n  %+v", rerun, first)
	}

	for _, pass := range []struct {
		peer      trace.NodeID
		want      ledger
		wantCalls providerCalls
	}{
		{1, first, firstCalls},
		{2, second, secondCalls},
	} {
		got, gotCalls := meet(at+sim.Second, pass.peer)
		if !reflect.DeepEqual(gotCalls, pass.wantCalls) || !reflect.DeepEqual(got, pass.want) {
			t.Errorf("one second later, peer %d: provider %+v and charges %+v; want %+v and %+v",
				pass.peer, gotCalls, got, pass.wantCalls, pass.want)
		}
	}
	if len(w.rec.replicated) != replicated {
		t.Fatal("a copy changed hands; the meetings no longer repeat one exchange")
	}
}

// checkFQRecord is the G2G Delegation case of
// TestSameInstantSessionsHitSignMemos. Nodes 0 and 1 are each the better
// carrier toward their own messages' destinations, so no offer between them
// qualifies. A re-run of their meeting at the same instant must reach the
// provider not once, yet charge every node, the wire, the crypto counters
// and the spans exactly what the first run did. A second peer at that
// instant, and both peers one second later, are exchanged with in full, and
// so is an exchange about a decoy repeated at one instant: node 0 offers
// node 3 its copy of node 3's message, which node 3 already holds, so the
// RELAY is refused and the offer repeats, each time about a fresh decoy.
func checkFQRecord(t *testing.T, newSys provider) {
	w, m, calls := newMeteredWorldBy(t, newSys, G2GDelegationFrequency, 8, testParams(), nil)
	for i, q := range []struct {
		node, dest trace.NodeID
		n          int
	}{{0, 3, 2}, {1, 3, 1}, {0, 5, 2}, {1, 5, 1}, {1, 4, 2}, {0, 4, 1}, {1, 6, 2}, {0, 6, 1}, {7, 3, 4}} {
		primeQuality(w, q.node, q.dest, q.n, sim.Time(i)*3*sim.Minute, sim.Minute)
	}
	w.generate(frame1, 0, 3)
	w.generate(frame1, 0, 5)
	w.generate(frame1, 1, 4)
	w.generate(frame1, 1, 6)
	w.meet(frame1+30*sim.Second, 0, 7) // node 7 takes node 3's message
	if len(w.rec.replicated) != 1 {
		t.Fatalf("setup made %d handoffs, want 1", len(w.rec.replicated))
	}
	meet := func(at sim.Time, a, b trace.NodeID) (ledger, providerCalls) {
		t.Helper()
		calls.reset()
		before := takeLedger(w, m)
		w.meet(at, a, b)
		return takeLedger(w, m).minus(before), calls.clone()
	}
	// exchanged checks that a meeting made n FQ exchanges, of whose FQ_RQSTs
	// the memos answered rqstHits; every FQ_RESP is signed at the provider,
	// and no verify reaches it.
	exchanged := func(name string, l ledger, calls providerCalls, n, rqstHits int) {
		t.Helper()
		rqst, resp := wire.KindFQRequest.String(), wire.KindFQResponse.String()
		if len(l.wire) != 2 || l.wire[rqst].Count != int64(n) || l.wire[resp].Count != int64(n) {
			t.Fatalf("%s sent %v, want %d FQ exchanges", name, l.wire, n)
		}
		if calls.signs[wire.KindFQRequest] != n-rqstHits || calls.signs[wire.KindFQResponse] != n {
			t.Fatalf("%s signed %v at the provider, want %d FQ_RQST and %d FQ_RESP", name, calls.signs, n-rqstHits, n)
		}
		if len(calls.verifies) != 0 {
			t.Fatalf("%s verified %v at the provider, want none", name, calls.verifies)
		}
	}
	replicated := len(w.rec.replicated)

	// Each node offers the other its two messages, and neither qualifies.
	at := frame1 + sim.Minute
	first, firstCalls := meet(at, 0, 1)
	exchanged("first meeting", first, firstCalls, 4, 0)

	rerun, rerunCalls := meet(at, 0, 1)
	if rerunCalls.total() != 0 {
		t.Errorf("same-instant re-run reached the provider: signs %v, verifies %v", rerunCalls.signs, rerunCalls.verifies)
	}
	if !reflect.DeepEqual(rerun, first) {
		t.Errorf("same-instant re-run charged\n  %+v\nwant the first meeting's\n  %+v", rerun, first)
	}

	// Node 0 offers node 2 the two copies it offered node 1 moments before:
	// both FQ_RQSTs hit their memos, and node 2 answers afresh.
	second, secondCalls := meet(at, 0, 2)
	exchanged("second peer at the same instant", second, secondCalls, 2, 2)

	later, laterCalls := meet(at+sim.Second, 0, 1)
	if !reflect.DeepEqual(laterCalls, firstCalls) || !reflect.DeepEqual(later, first) {
		t.Errorf("one second later: provider %+v and charges %+v; want %+v and %+v",
			laterCalls, later, firstCalls, first)
	}
	if len(w.rec.replicated) != replicated {
		t.Fatal("a copy changed hands; the meetings no longer repeat one exchange")
	}

	// Node 7 delivers node 3's message. Then node 0's offer of its own copy
	// asks node 3 about a decoy, and node 3 refuses the RELAY; the offer of
	// node 5's message, at a new instant, is exchanged in full.
	at += 2 * sim.Second
	w.meet(at, 7, 3)
	if len(w.rec.delivered) != 1 {
		t.Fatal("node 7 did not deliver node 3's message")
	}
	replicated = len(w.rec.replicated)
	// A decoy differs every time, so its FQ_RQST never hits a memo; node
	// 3's FQ_RESP about it hits only where node 3 answered about that decoy
	// before at this instant, as it may have for node 7's delivery.
	decoy, decoyCalls := meet(at, 0, 3)
	if decoy.wire[wire.KindRelayTransfer.String()].Count != 1 || decoy.wire[wire.KindFQRequest.String()].Count != 2 {
		t.Fatalf("decoy exchange sent %v, want one RELAY and two FQ_RQSTs", decoy.wire)
	}
	if decoyCalls.signs[wire.KindFQRequest] != 2 || decoyCalls.signs[wire.KindFQResponse] < 1 ||
		decoyCalls.signs[wire.KindRelayTransfer] != 0 || len(decoyCalls.verifies) != 0 {
		t.Fatalf("decoy exchange reached the provider with signs %v, verifies %v; want two FQ_RQSTs, one or two FQ_RESPs, no RELAY and no verify",
			decoyCalls.signs, decoyCalls.verifies)
	}
	// The offer of node 5's message now goes through the record; the decoy
	// exchange does not.
	again, againCalls := meet(at, 0, 3)
	if !reflect.DeepEqual(again, decoy) {
		t.Errorf("repeated decoy exchange charged\n  %+v\nwant the first one's\n  %+v", again, decoy)
	}
	if againCalls.signs[wire.KindFQRequest] != 1 || againCalls.signs[wire.KindFQResponse] > 1 || len(againCalls.verifies) != 0 {
		t.Errorf("repeated decoy exchange reached the provider with signs %v, verifies %v; want one FQ_RQST, at most one FQ_RESP and no verify",
			againCalls.signs, againCalls.verifies)
	}
	if len(w.rec.replicated) != replicated {
		t.Fatal("node 3 took a message it holds")
	}
}

// TestOfferRecordSkipsAcceptedOffers pins that only a decline is recorded:
// a repeat of an offer the peer accepted, at the same instant, is exchanged
// in full and accepted again (a handoff can fail after the RELAY_OK). Its
// RELAY_RQST repeats the bytes just signed, so the request memo answers it;
// the peer signs its RELAY_OK afresh.
func TestOfferRecordSkipsAcceptedOffers(t *testing.T) {
	w, m, calls := newMeteredWorld(t, G2GEpidemic, 4, testParams(), nil)
	h := w.generate(0, 0, 3)
	a, b := w.nodes[0].(*g2gNode), w.nodes[1].(*g2gNode)
	for i, rqstSigns := range []int{1, 0} {
		calls.reset()
		before := takeLedger(w, m)
		if _, ok := a.requestRelay(sim.Minute, a.custody[h], b); !ok {
			t.Fatalf("offer %d of an unseen message declined", i)
		}
		l := takeLedger(w, m).minus(before)
		if l.wire[wire.KindRelayRequest.String()].Count != 1 || l.wire[wire.KindRelayOK.String()].Count != 1 {
			t.Fatalf("offer %d sent %v, want one RELAY_RQST and one RELAY_OK", i, l.wire)
		}
		if calls.signs[wire.KindRelayRequest] != rqstSigns || calls.signs[wire.KindRelayOK] != 1 {
			t.Fatalf("offer %d reached the provider with %v, want %d RELAY_RQST and one RELAY_OK", i, calls.signs, rqstSigns)
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
	if _, ok := a.requestRelay(now, c, b); ok {
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

// TestFQRecordAllocs pins the allocations of a same-instant repeat of a G2G
// Delegation offer, with telemetry attached as in a run, whose FQ exchange
// the offer record answers and whose RELAY the peer refuses because it
// holds the message: none.
func TestFQRecordAllocs(t *testing.T) {
	fast, err := g2gcrypto.NewFast(5, 7)
	if err != nil {
		t.Fatal(err)
	}
	w, _, h := refusalWorld(t, fast)
	a, b := w.nodes[2].(*g2gNode), w.nodes[1].(*g2gNode)
	c := a.custody[h]
	now := frame1 + 4*sim.Minute
	if a.relayOne(now, c, b) {
		t.Fatal("a peer holding the message took it again")
	}
	if got := testing.AllocsPerRun(200, func() { a.relayOne(now, c, b) }); got != 0 {
		t.Errorf("same-instant repeat of a refused offer: %v allocs, want 0", got)
	}
}

// TestCustodyCopySize pins, on 64-bit platforms, the size of a copy, which
// a node holds per message it has handled until Δ2, and of the offer record
// each copy it still offers carries.
func TestCustodyCopySize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(g2gCustody{}); got != 144 {
		t.Errorf("sizeof(g2gCustody) = %d bytes, want 144", got)
	}
	if got := unsafe.Sizeof(offerRecord{}); got != 144 {
		t.Errorf("sizeof(offerRecord) = %d bytes, want 144", got)
	}
}

// FuzzDeclineRecord drives two G2G Epidemic worlds through one random
// script of generations, meetings and clock steps (see checkRecordScript).
// Several meetings share an instant, as the engine's cascades make them,
// and the clock crosses Δ1 and Δ2, so copies are offered, declined, handed
// on, tested and expired.
//
// population picks 3–6 nodes and, with bit 3, makes the last a dropper.
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
		checkRecordScript(t, G2GEpidemic, n, params, behaviors, script)
	})
}

// FuzzFQRecord is FuzzDeclineRecord for G2G Delegation: FQ exchanges are
// repeated at one instant, with peers that qualify or not, with the
// destination about a decoy, and around same-instant deliveries that
// relabel the copy being offered. With 1-second quality frames every
// instant closes a frame, so a meeting at an instant changes the answers
// its nodes give later in that instant.
//
// population picks 3–6 nodes; bit 3 makes the last a liar and bit 4 the one
// before it a cheater; bit 5 selects Destination Last Contact, and bit 6
// 1-second quality frames instead of 1-minute ones.
func FuzzFQRecord(f *testing.F) {
	// Five nodes, 1-second frames. Node 0 labels its message to node 3 with
	// quality 3, which node 1 (quality 2) fails to beat. Node 0 then
	// delivers the message at that instant, relabelling its copy with node
	// 3's quality toward a decoy, and offers it to node 1 again: the record
	// answers with node 1's FQ_RESP, and node 1 may now qualify.
	f.Add(uint8(66), []byte{18, 0, 18, 0, 18, 0, 10, 1, 10, 1, 16, 0, 1, 0,
		2, 0, 18, 0, 2, 0, 2, 0, 2, 1, 1, 0, 2, 0, 2, 0, 1, 7, 2, 0, 2, 0})
	// Four nodes, 1-second frames. Node 1 answers node 0's offer with
	// quality 0, meets the destination 2 at that instant, and answers the
	// repeated offer with quality 1: the record must not answer it.
	f.Add(uint8(65), []byte{10, 0, 10, 0, 10, 0, 8, 0, 2, 0, 2, 1, 2, 0, 2, 0, 1, 0, 2, 0, 2, 0})
	// Six nodes, 1-minute frames, with a liar (5) and a cheater (4). Two
	// sources offer their messages to node 3 at one instant, each meeting
	// twice: the liar fails and is declared, the cheater qualifies and
	// hands node 0's message on to two nodes that do not beat its label,
	// and node 1 delivers both messages, whose declarations node 3 audits.
	// Then the Δ1 tests, and the Δ2 expiry.
	f.Add(uint8(27), []byte{18, 0, 26, 5, 26, 5, 26, 5, 34, 4, 34, 4, 10, 1, 2, 2, 1, 7, 16, 0, 8, 1,
		34, 0, 34, 0, 2, 0, 2, 0, 26, 0, 26, 0, 26, 4, 26, 4, 18, 4, 18, 4, 10, 1, 10, 1, 1, 7,
		26, 0, 26, 0, 2, 1, 1, 7, 2, 0})
	f.Fuzz(func(t *testing.T, population uint8, script []byte) {
		n := 3 + int(population%4)
		behaviors := make(map[trace.NodeID]Behavior)
		if population&8 != 0 {
			behaviors[trace.NodeID(n-1)] = Behavior{Deviation: Liar}
		}
		if population&16 != 0 {
			behaviors[trace.NodeID(n-2)] = Behavior{Deviation: Cheater}
		}
		kind := G2GDelegationFrequency
		if population&32 != 0 {
			kind = G2GDelegationLastContact
		}
		params := DefaultParams(2 * sim.Minute)
		params.HeavyHMACIterations = 4
		params.QualityFrame = sim.Minute
		if population&64 != 0 {
			params.QualityFrame = sim.Second
		}
		checkRecordScript(t, kind, n, params, behaviors, script)
	})
}

// checkRecordScript drives two worlds of kind through one script. Before
// each session of the reference world a test-local helper clears every
// offer record, so there every offer is exchanged in full. After every
// step, per-node usage, wire traffic by kind, crypto and span counts,
// observer records and every node's state (g2gStateOf: custody copies,
// pending tests and transfers, G2G Delegation's quality history, audits
// and claim) must agree; at the end, the RNG position too.
//
// Each script byte pair (op, arg) is one step, at most 48: with a = arg mod
// n and b the node (op>>3) mod (n-1) + 1 places after a, op mod 8 = 0
// generates a message from a to b, 1 steps the clock by (1 + arg mod 8) ×
// 20 s, and the rest meet a and b. The clock starts at 1 s.
func checkRecordScript(t *testing.T, kind Kind, n int, params Params,
	behaviors map[trace.NodeID]Behavior, script []byte) {

	t.Helper()
	w, m, _ := newMeteredWorld(t, kind, n, params, behaviors)
	ref, refM, _ := newMeteredWorld(t, kind, n, params, behaviors)
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
		// After every step: a divergence can be overwritten later, as a
		// failed-relay declaration is by the next two.
		if got, want := takeLedger(w, m), takeLedger(ref, refM); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: charges diverged from the reference:\n  got  %+v\n  want %+v", i/2, got, want)
		}
		if !reflect.DeepEqual(w.rec, ref.rec) {
			t.Fatalf("step %d: observer records diverged:\n  got  %+v\n  want %+v", i/2, w.rec, ref.rec)
		}
		for j, node := range w.nodes {
			if got, want := g2gStateOf(node.(*g2gNode)), g2gStateOf(ref.nodes[j].(*g2gNode)); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: node %d state diverged from the reference:\n  got  %+v\n  want %+v", i/2, j, got, want)
			}
		}
	}
	// Equal positions draw equal values: bytes first, which would expose a
	// difference in a partly used draw, then whole draws.
	got, want := make([]byte, 13), make([]byte, 13)
	w.env.RNG.Bytes(got)
	ref.env.RNG.Bytes(want)
	if !bytes.Equal(got, want) || w.env.RNG.Int63() != ref.env.RNG.Int63() {
		t.Fatal("RNG position diverged from the reference")
	}
}

// g2gState is what a G2G node carries from one session to the next: every
// custody copy with its persistent fields (the offer record, a cache, left
// out), the pending tests and transfers, G2G Delegation's quality history,
// audits and FQ claim (its FQ_RESP memos, a cache, left out), and the
// derived orderings and counters, which must agree as well.
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
	quality    *qualityTable
	audited    map[auditKey]struct{}
	claim      fqClaim
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
	if d := n.del; d != nil {
		st.quality, st.audited, st.claim = d.quality, d.audited, d.claim
	}
	return st
}
