package engine

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"testing"

	"give2get/internal/invariant"
	"give2get/internal/mobility"
	"give2get/internal/obs"
	"give2get/internal/protocol"
	"give2get/internal/sim"
	"give2get/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the golden files with the current output")

// TestCostGolden pins what audited G2G runs charge, byte for byte: every
// node's usage (the payoff's energy and memory inputs) and the run's
// telemetry counts — wire messages and bytes per kind, the wire-size
// histogram, crypto operation counts and span counts. The audit digest pins
// what a run does; this pins what it costs, which is where a shortcut that
// skips work must charge exactly what the work would have. Wall times are
// left out: only counts are deterministic. Regenerate with
// `go test ./internal/engine -run TestCostGolden -update` after an intended
// change of the cost model.
func TestCostGolden(t *testing.T) {
	tr, err := mobility.Generate(mobility.Infocom05(), 1)
	if err != nil {
		t.Fatal(err)
	}
	first, _, err := trace.SpanOf(tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		kind      protocol.Kind
		deviation protocol.Deviation
		ttl       sim.Time
	}{
		{"g2g-delegation-frequency-liars", protocol.G2GDelegationFrequency, protocol.Liar, 30 * sim.Minute},
		{"g2g-delegation-last-contact-cheaters", protocol.G2GDelegationLastContact, protocol.Cheater, 30 * sim.Minute},
		{"g2g-epidemic-droppers", protocol.G2GEpidemic, protocol.Dropper, 10 * sim.Minute},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{
				Trace:     tr,
				Protocol:  tc.kind,
				Params:    protocol.DefaultParams(tc.ttl),
				Seed:      1,
				Deviants:  []trace.NodeID{3, 11, 19, 27, 35, 40},
				Deviation: tc.deviation,
				Audit:     &invariant.Options{Label: tc.name},
				Telemetry: obs.NewMetrics(),
			}
			DefaultWorkload(&cfg, first+sim.Hour)
			cfg.MessageInterval = 20 * sim.Second
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Audit.Ok() {
				t.Fatalf("audit failed: %v", res.Audit.Violations)
			}
			checkCostGolden(t, tc.name, costReport(res))
		})
	}
}

// costReport renders what a run charged, one line per node and per counter.
func costReport(res *Result) []byte {
	var b bytes.Buffer
	for i, u := range res.Usage {
		fmt.Fprintf(&b, "node %d sig=%d verify=%d hmac_iter=%d tx=%d rx=%d control=%d mem_byte_s=%s\n",
			i, u.Signatures, u.Verifications, u.HeavyHMACIterations, u.PayloadTxBytes, u.PayloadRxBytes,
			u.ControlMessages, strconv.FormatFloat(u.MemoryByteSeconds, 'g', -1, 64))
	}
	tel := res.Telemetry
	kinds := make([]string, 0, len(tel.Protocol.Wire))
	for k := range tel.Protocol.Wire {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		w := tel.Protocol.Wire[k]
		fmt.Fprintf(&b, "wire %s count=%d bytes=%d\n", k, w.Count, w.Bytes)
	}
	h := tel.Protocol.WireSizes
	fmt.Fprintf(&b, "wire_sizes count=%d sum=%d max=%d total=%d\n", h.Count, h.Sum, h.Max, tel.Protocol.WireBytesTotal)
	for _, bk := range h.Buckets {
		fmt.Fprintf(&b, "wire_sizes lt=%d n=%d\n", bk.Lt, bk.N)
	}
	c := tel.Crypto
	fmt.Fprintf(&b, "crypto %s sign=%d verify=%d seal=%d open=%d heavy_hmac=%d heavy_hmac_iter=%d\n",
		c.Provider, c.Sign.Count, c.Verify.Count, c.Seal.Count, c.Open.Count, c.HeavyHMAC.Count, c.HeavyHMACIterations)
	p := tel.Protocol
	fmt.Fprintf(&b, "tests started=%d passed=%d failed=%d quality_updates=%d\n",
		p.TestsStarted, p.TestsPassed, p.TestsFailed, p.QualityUpdates)
	for _, s := range tel.Spans {
		fmt.Fprintf(&b, "span %s count=%d\n", s.Name, s.Count)
	}
	return b.Bytes()
}

// checkCostGolden compares got against testdata/<name>.golden; -update
// rewrites it instead.
func checkCostGolden(t *testing.T, name string, got []byte) {
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
		t.Fatalf("missing golden file (regenerate with `go test ./internal/engine -run TestCostGolden -update`): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("charges drifted from %s — if intended, regenerate with -update\n--- got ---\n%s--- want ---\n%s",
			path, got, want)
	}
}
