package protocol

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"give2get/internal/g2gcrypto"
	"give2get/internal/obs"
	"give2get/internal/sim"
	"give2get/internal/trace"
	"give2get/internal/wire"
)

var update = flag.Bool("update", false, "rewrite the golden files with the current output")

// refusalWorld builds a G2G Delegation world on sys in which node 2 holds
// message h, labelled 2 and carrying the source's one failed-relay
// declaration, and node 1, whose quality toward the destination 4 is 3,
// holds h as well: node 2's offer of h to node 1 qualifies, and node 1
// refuses the RELAY.
func refusalWorld(t *testing.T, sys g2gcrypto.System) (*world, *obs.Metrics, g2gcrypto.Digest) {
	t.Helper()
	w, m, _ := newMeteredWorldOn(t, sys, G2GDelegationFrequency, testParams(), nil)
	primeQuality(w, 0, 4, 1, 0, sim.Minute)
	primeQuality(w, 2, 4, 2, 5*sim.Minute, sim.Minute)
	primeQuality(w, 1, 4, 3, 10*sim.Minute, sim.Minute)
	h := w.generate(frame1, 0, 4)
	w.meet(frame1+sim.Minute, 0, 3)   // node 3 fails to qualify: a declaration
	w.meet(frame1+2*sim.Minute, 0, 2) // 0 -> 2, label 2
	w.meet(frame1+3*sim.Minute, 0, 1) // 0 -> 1, label 3
	if got := len(w.nodes[2].(*g2gNode).custody[h].del.failedFQ); got != 1 {
		t.Fatalf("node 2's copy carries %d declarations, want 1", got)
	}
	if _, ok := w.nodes[1].(*g2gNode).custody[h]; !ok {
		t.Fatal("node 1 does not hold the message")
	}
	return w, m, h
}

// TestRefusedRelayCharges pins what a qualified peer that already holds the
// message costs: relayOne must charge exactly what building the RELAY
// costs — the session key and nonce drawn from the RNG, the payload
// encrypted, the RELAY signed and put on the wire, and the peer's verify
// before it refuses — whether or not it builds one. The reference world
// runs the same FQ exchange and then builds the RELAY by hand. Both
// providers run it, so a RELAY sized with the wrong signature length shows.
func TestRefusedRelayCharges(t *testing.T) {
	// The fast provider's signatures are 32 bytes, the real provider's 64.
	for _, p := range []struct {
		name string
		make func(n int) (g2gcrypto.System, error)
	}{
		{"fast", func(n int) (g2gcrypto.System, error) { return g2gcrypto.NewFast(n, 7) }},
		{"real", func(n int) (g2gcrypto.System, error) { return g2gcrypto.NewReal(n, 7) }},
	} {
		t.Run(p.name, func(t *testing.T) {
			sysW, err := p.make(5)
			if err != nil {
				t.Fatal(err)
			}
			sysR, err := p.make(5)
			if err != nil {
				t.Fatal(err)
			}
			w, m, h := refusalWorld(t, sysW)
			ref, refM, hRef := refusalWorld(t, sysR)
			now := frame1 + 4*sim.Minute

			a, b := w.nodes[2].(*g2gNode), w.nodes[1].(*g2gNode)
			if a.relayOne(now, a.custody[h], b) {
				t.Fatal("a peer holding the message took it again")
			}

			ra, rb := ref.nodes[2].(*g2gNode), ref.nodes[1].(*g2gNode)
			c := ra.custody[hRef]
			terms, ok := ra.qualify(now, c, rb)
			if !ok {
				t.Fatal("the peer does not qualify in the reference")
			}
			key := newSessionKey(ref.env.RNG)
			encrypted, err := g2gcrypto.EncryptPayload(key, c.raw, rngReader{ref.env.RNG})
			if err != nil {
				t.Fatal(err)
			}
			transfer := ra.signed(now, wire.RelayTransfer{
				Hash: hRef, FM: terms.fm, GenAt: c.genAt, Encrypted: encrypted, Attachments: terms.attachments,
			})
			if _, ok := rb.handleRelayTransfer(now, transfer); ok {
				t.Fatal("the reference peer accepted a RELAY of a message it holds")
			}
			rb.del.dropClaim()

			if got, want := takeLedger(w, m), takeLedger(ref, refM); !reflect.DeepEqual(got, want) {
				t.Fatalf("refused RELAY charged\n  %+v\nwant what building it charges\n  %+v", got, want)
			}
			if b.del.claim.valid {
				t.Error("the peer's FQ claim outlived the exchange")
			}
			// The real provider's message hashes differ between the worlds,
			// so node state is compared by what does not name them.
			for i := range w.nodes {
				n, r := w.nodes[i].(*g2gNode), ref.nodes[i].(*g2gNode)
				if n.mem != r.mem || len(n.custody) != len(r.custody) || len(n.pendingIn) != len(r.pendingIn) {
					t.Fatalf("node %d: memory %d, %d copies, %d pending; the reference %d, %d, %d",
						i, n.mem, len(n.custody), len(n.pendingIn), r.mem, len(r.custody), len(r.pendingIn))
				}
			}
			got, want := make([]byte, 13), make([]byte, 13)
			w.env.RNG.Bytes(got)
			ref.env.RNG.Bytes(want)
			if !bytes.Equal(got, want) || w.env.RNG.Int63() != ref.env.RNG.Int63() {
				t.Fatal("RNG position diverged from the reference")
			}
		})
	}
}

// TestRealProviderCostGolden pins what a scripted G2G Delegation world on
// the real provider charges, 64-byte signatures and all. One message is in
// flight, so every node holds at most one copy and the run does not depend
// on the real provider's random message hashes. The script repeats
// exchanges at one instant: declarations of peers that fail to qualify
// (one a liar), a peer that does not qualify for a relay's copy, a
// qualified peer that already holds the message, a delivery through a
// decoy, and the source's test of its relay. Regenerate with
// `go test ./internal/protocol -run TestRealProviderCostGolden -update`
// after an intended change of the cost model.
func TestRealProviderCostGolden(t *testing.T) {
	sys, err := g2gcrypto.NewReal(7, 7)
	if err != nil {
		t.Fatal(err)
	}
	params := testParams()
	params.HeavyHMACIterations = 4
	w, m, _ := newMeteredWorldOn(t, sys, G2GDelegationFrequency, params,
		map[trace.NodeID]Behavior{5: {Deviation: Liar}})
	primeQuality(w, 0, 6, 1, 0, sim.Minute)
	primeQuality(w, 2, 6, 1, 3*sim.Minute, sim.Minute)
	primeQuality(w, 1, 6, 2, 6*sim.Minute, sim.Minute)
	primeQuality(w, 3, 6, 3, 10*sim.Minute, sim.Minute)
	primeQuality(w, 5, 6, 4, 15*sim.Minute, sim.Minute)
	w.generate(frame1, 0, 6)
	for i, step := range []struct {
		at   sim.Time
		a, b trace.NodeID
	}{
		{sim.Minute, 0, 4}, {sim.Minute, 0, 4}, // quality 0: a declaration, twice
		{sim.Minute, 0, 5}, {sim.Minute, 0, 5}, // the liar's 0: another
		{sim.Minute, 0, 2},     // quality 1 does not beat label 1
		{2 * sim.Minute, 0, 1}, // 0 -> 1, label 2; 0 fails for 1's copy
		{2 * sim.Minute, 0, 1}, // 1's offer to 0 again
		{3 * sim.Minute, 1, 3}, // 1 -> 3, label 3
		{3 * sim.Minute, 0, 3}, // 3 qualifies for 0's copy, holds it
		{3 * sim.Minute, 0, 3},
		{3*sim.Minute + sim.Second, 0, 3},
		{4 * sim.Minute, 3, 6}, // delivery through a decoy
		{4 * sim.Minute, 3, 6},
		{params.Delta1 + sim.Minute, 0, 1}, // the source tests its relay
	} {
		w.meet(frame1+step.at, step.a, step.b)
		if i == 12 && len(w.rec.delivered) != 1 {
			t.Fatal("the destination did not receive the message")
		}
	}
	if len(w.rec.tested) != 1 {
		t.Fatalf("%d tests ran, want 1", len(w.rec.tested))
	}
	checkGolden(t, "real-delegation-cost", renderLedger(takeLedger(w, m)))
}

// renderLedger prints a ledger one line per node and per counter.
func renderLedger(l ledger) []byte {
	var b bytes.Buffer
	for i, u := range l.usage {
		fmt.Fprintf(&b, "node %d sig=%d verify=%d hmac_iter=%d tx=%d rx=%d control=%d\n",
			i, u.Signatures, u.Verifications, u.HeavyHMACIterations, u.PayloadTxBytes, u.PayloadRxBytes, u.ControlMessages)
	}
	kinds := make([]string, 0, len(l.wire))
	for k := range l.wire {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(&b, "wire %s count=%d bytes=%d\n", k, l.wire[k].Count, l.wire[k].Bytes)
	}
	fmt.Fprintf(&b, "wire total count=%d bytes=%d\n", l.wireCount, l.wireBytes)
	fmt.Fprintf(&b, "crypto sign=%d verify=%d seal=%d open=%d heavy_hmac=%d heavy_hmac_iter=%d\n",
		l.signs, l.verifies, l.seals, l.opens, l.hmacs, l.hmacIterations)
	fmt.Fprintf(&b, "tests started=%d failed=%d\n", l.testsStarted, l.testsFailed)
	spans := make([]string, 0, len(l.spans))
	for k := range l.spans {
		spans = append(spans, k)
	}
	sort.Strings(spans)
	for _, k := range spans {
		fmt.Fprintf(&b, "span %s count=%d\n", k, l.spans[k])
	}
	return b.Bytes()
}

// checkGolden compares got against testdata/<name>.golden; -update rewrites
// it instead.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("charges drifted from %s — if intended, regenerate with -update\n--- got ---\n%s--- want ---\n%s",
			path, got, want)
	}
}
