package engine

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"give2get/internal/kclique"
	"give2get/internal/mobility"
	"give2get/internal/obs"
	"give2get/internal/protocol"
	"give2get/internal/sim"
	"give2get/internal/trace"
)

// testTrace builds a small two-community trace for integration tests.
func testTrace(t testing.TB, seed int64) *trace.Trace {
	t.Helper()
	cfg := mobility.Config{
		Name:           "engine-test",
		CommunitySizes: []int{6, 6},
		Duration:       30 * sim.Hour,
		Within:         mobility.PairParams{ShortGap: 8 * sim.Minute, LongGap: 80 * sim.Minute, BurstProb: 0.65},
		Across:         mobility.PairParams{ShortGap: 20 * sim.Minute, LongGap: 5 * sim.Hour, BurstProb: 0.3},
		ContactMean:    2 * sim.Minute,
	}
	tr, err := mobility.Generate(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func baseConfig(t testing.TB, kind protocol.Kind) Config {
	t.Helper()
	cfg := Config{
		Trace:    testTrace(t, 1),
		Protocol: kind,
		Params:   protocol.DefaultParams(30 * sim.Minute),
		Seed:     1,
	}
	DefaultWorkload(&cfg, 13*sim.Hour)
	cfg.MessageInterval = 30 * sim.Second // lighter than the paper for test speed
	cfg.Params.HeavyHMACIterations = 4    // keep tests fast
	return cfg
}

func TestRunEpidemicDelivers(t *testing.T) {
	res, err := Run(baseConfig(t, protocol.Epidemic))
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Generated < 50 {
		t.Fatalf("generated only %d messages", res.Summary.Generated)
	}
	if res.Summary.SuccessRate < 50 {
		t.Errorf("epidemic success = %.1f%%, want >= 50%%", res.Summary.SuccessRate)
	}
	if res.Summary.MeanCost <= 1 {
		t.Errorf("epidemic cost = %.2f, want > 1", res.Summary.MeanCost)
	}
	if res.Summary.MeanDelay <= 0 {
		t.Error("mean delay not positive")
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := baseConfig(t, protocol.G2GEpidemic)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Summary != b.Summary {
		t.Errorf("same seed, different summaries:\n%+v\n%+v", a.Summary, b.Summary)
	}
	cfg.Seed = 2
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Summary == c.Summary {
		t.Error("different seeds produced identical summaries (suspicious)")
	}
}

func TestRunG2GEpidemicMatchesEpidemicDeliveryCheaper(t *testing.T) {
	epidemic, err := Run(baseConfig(t, protocol.Epidemic))
	if err != nil {
		t.Fatal(err)
	}
	g2g, err := Run(baseConfig(t, protocol.G2GEpidemic))
	if err != nil {
		t.Fatal(err)
	}
	if g2g.Summary.SuccessRate < epidemic.Summary.SuccessRate-15 {
		t.Errorf("g2g success %.1f%% too far below epidemic %.1f%%",
			g2g.Summary.SuccessRate, epidemic.Summary.SuccessRate)
	}
	if g2g.Summary.MeanCost >= epidemic.Summary.MeanCost {
		t.Errorf("g2g cost %.2f not below epidemic %.2f",
			g2g.Summary.MeanCost, epidemic.Summary.MeanCost)
	}
}

func TestRunG2GEpidemicDetectsDroppers(t *testing.T) {
	cfg := baseConfig(t, protocol.G2GEpidemic)
	cfg.Deviants = []trace.NodeID{2, 7, 10}
	cfg.Deviation = protocol.Dropper
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Detection.Rate < 60 {
		t.Errorf("dropper detection rate = %.1f%%, want >= 60%%", res.Detection.Rate)
	}
	if res.Detection.FalseAccusations != 0 {
		t.Errorf("false accusations = %d, want 0", res.Detection.FalseAccusations)
	}
	if res.Detection.Detected > 0 && res.Detection.MeanTimeAfterTTL <= 0 {
		t.Error("detection time after TTL should be positive for droppers")
	}
}

func TestRunHonestG2GNoDetections(t *testing.T) {
	for _, kind := range []protocol.Kind{protocol.G2GEpidemic, protocol.G2GDelegationLastContact} {
		res, err := Run(baseConfig(t, kind))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Detections) != 0 {
			t.Errorf("%v: honest run produced detections: %+v", kind, res.Detections)
		}
	}
}

func TestRunDelegationCheaperThanEpidemic(t *testing.T) {
	epidemic, err := Run(baseConfig(t, protocol.Epidemic))
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(t, protocol.DelegationLastContact)
	cfg.Params = protocol.DefaultParams(45 * sim.Minute)
	cfg.Params.HeavyHMACIterations = 4
	delegation, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if delegation.Summary.MeanCost >= epidemic.Summary.MeanCost {
		t.Errorf("delegation cost %.2f not below epidemic %.2f",
			delegation.Summary.MeanCost, epidemic.Summary.MeanCost)
	}
}

func TestRunG2GDelegationDetectsLiars(t *testing.T) {
	cfg := baseConfig(t, protocol.G2GDelegationFrequency)
	cfg.Params = protocol.DefaultParams(45 * sim.Minute)
	cfg.Params.HeavyHMACIterations = 4
	DefaultWorkload(&cfg, 13*sim.Hour)
	cfg.MessageInterval = 10 * sim.Second
	cfg.Deviants = []trace.NodeID{1, 4, 8}
	cfg.Deviation = protocol.Liar
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Detection.Detected == 0 {
		t.Error("no liar was detected")
	}
	if res.Detection.FalseAccusations != 0 {
		t.Errorf("false accusations = %d", res.Detection.FalseAccusations)
	}
}

func TestRunG2GDelegationDetectsCheaters(t *testing.T) {
	cfg := baseConfig(t, protocol.G2GDelegationFrequency)
	cfg.Params = protocol.DefaultParams(45 * sim.Minute)
	cfg.Params.HeavyHMACIterations = 4
	DefaultWorkload(&cfg, 13*sim.Hour)
	cfg.MessageInterval = 10 * sim.Second
	cfg.Deviants = []trace.NodeID{1, 4, 8}
	cfg.Deviation = protocol.Cheater
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Detection.Detected == 0 {
		t.Error("no cheater was detected")
	}
	if res.Detection.FalseAccusations != 0 {
		t.Errorf("false accusations = %d", res.Detection.FalseAccusations)
	}
}

// TestRunWithOutsidersDetectsCommunities: a with-outsiders run without
// Config.Communities detects them on the trace. It must equal the run given
// the same detection up front, and differ from deviants that drop for
// everyone.
func TestRunWithOutsidersDetectsCommunities(t *testing.T) {
	cfg := baseConfig(t, protocol.G2GEpidemic)
	cfg.Deviants = []trace.NodeID{2, 7}
	cfg.Deviation = protocol.Dropper
	cfg.OnlyOutsiders = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Detection.FalseAccusations != 0 {
		t.Errorf("false accusations = %d", res.Detection.FalseAccusations)
	}

	given := cfg
	given.Communities, err = kclique.DetectAuto(cfg.Trace.(*trace.Trace), kclique.DefaultOptions().K)
	if err != nil {
		t.Fatal(err)
	}
	if given.Communities.Len() == 0 {
		t.Fatal("the test trace has no communities")
	}
	want, err := Run(given)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary != want.Summary || !reflect.DeepEqual(res.Usage, want.Usage) {
		t.Errorf("detected communities ran %+v, given ones %+v", res.Summary, want.Summary)
	}

	cfg.OnlyOutsiders = false
	everyone, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(res.Usage, everyone.Usage) {
		t.Error("dropping only for outsiders ran exactly as dropping for everyone")
	}
}

// TestRunRealCrypto: a real-crypto run moves messages, and it is
// reproducible for a fixed seed: two audited runs emit the same trace
// records, message hashes included, and the same audit digest.
func TestRunRealCrypto(t *testing.T) {
	run := func() ([]obs.Record, string) {
		cfg := auditConfig(t, protocol.G2GEpidemic)
		cfg.Crypto = CryptoReal
		cfg.MessageInterval = 2 * sim.Minute // keep the real-crypto run small
		cfg.Deviants = []trace.NodeID{2, 7}
		cfg.Deviation = protocol.Dropper
		sink := &collectSink{min: obs.LevelDebug}
		cfg.TraceSink = sink
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Summary.Generated == 0 || res.Summary.Delivered == 0 {
			t.Errorf("real-crypto run did not move messages: %+v", res.Summary)
		}
		for i := range sink.recs {
			sink.recs[i].Wall = time.Time{}
		}
		return sink.recs, mustAuditClean(t, res).Digest
	}
	recs, digest := run()
	again, digestAgain := run()
	if digest != digestAgain {
		t.Errorf("audit digests differ: %s, then %s", digest, digestAgain)
	}
	for i := range recs {
		if i >= len(again) || recs[i] != again[i] {
			t.Fatalf("trace record %d differs between two runs of one seed: %+v", i, recs[i])
		}
	}
	if len(again) != len(recs) {
		t.Fatalf("%d trace records, then %d", len(recs), len(again))
	}
}

func TestConfigValidate(t *testing.T) {
	valid := baseConfig(t, protocol.Epidemic)
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{name: "nil trace", mutate: func(c *Config) { c.Trace = nil }},
		{name: "empty window", mutate: func(c *Config) { c.WindowTo = c.WindowFrom }},
		{name: "zero interval", mutate: func(c *Config) { c.MessageInterval = 0 }},
		{name: "quiet exceeds window", mutate: func(c *Config) { c.GenerationQuiet = 4 * sim.Hour }},
		{name: "negative warmup", mutate: func(c *Config) { c.Warmup = -sim.Hour }},
		{name: "deviant out of range", mutate: func(c *Config) { c.Deviants = []trace.NodeID{99} }},
		{name: "bad params", mutate: func(c *Config) { c.Params.Delta1 = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := valid
			tt.mutate(&cfg)
			if _, err := Run(cfg); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
	cfg := valid
	cfg.Crypto = CryptoProvider("bogus")
	if _, err := Run(cfg); err == nil {
		t.Error("unknown crypto provider accepted")
	}
}

// TestConfigValidateRejectsRepeatedDeviant: the engine runs a deviant set,
// but the detection rate divides by the list's length, so a list naming a
// node twice reported the same run at half its rate. Validate refuses the
// list and names the repeated id.
func TestConfigValidateRejectsRepeatedDeviant(t *testing.T) {
	cfg := baseConfig(t, protocol.G2GEpidemic)
	cfg.Deviants = []trace.NodeID{3, 1}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("distinct deviants refused: %v", err)
	}
	cfg.Deviants = []trace.NodeID{3, 1, 3, 1}
	err := cfg.Validate()
	if err == nil || err.Error() != "engine: deviant 3 listed twice" {
		t.Fatalf("Validate = %v, want the repeated deviant 3 named", err)
	}
	if _, runErr := Run(cfg); runErr == nil || runErr.Error() != err.Error() {
		t.Errorf("Run = %v, want %v", runErr, err)
	}
}

// TestG2GDelegationNeedsThreeNodes: when a G2G Delegation source meets its
// destination it asks about a decoy D′ other than both peers (Fig. 6), and
// on two nodes there is none. Validate must refuse the run up front rather
// than let the decoy draw spin forever; G2G Epidemic needs no decoy and
// still runs.
func TestG2GDelegationNeedsThreeNodes(t *testing.T) {
	var contacts []trace.Contact
	for i := 0; i < 400; i++ {
		at := sim.Time(i) * 5 * sim.Minute
		contacts = append(contacts, trace.Contact{A: 0, B: 1, Start: at, End: at + sim.Minute})
	}
	tr, err := trace.New("pair", 2, contacts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Trace:           tr,
		Params:          protocol.DefaultParams(10 * sim.Minute),
		Seed:            1,
		WindowFrom:      13 * sim.Hour,
		WindowTo:        16 * sim.Hour,
		MessageInterval: sim.Minute,
		GenerationQuiet: sim.Hour,
	}
	for _, kind := range []protocol.Kind{protocol.G2GDelegationFrequency, protocol.G2GDelegationLastContact} {
		cfg.Protocol = kind
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), "decoy") {
			t.Fatalf("%v on two nodes: Validate = %v, want the decoy error", kind, err)
		}
		if _, runErr := Run(cfg); runErr == nil || runErr.Error() != err.Error() {
			t.Errorf("%v on two nodes: Run = %v, want %v", kind, runErr, err)
		}
	}
	cfg.Protocol = protocol.G2GEpidemic
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Generated == 0 || res.Summary.Delivered != res.Summary.Generated {
		t.Errorf("G2G Epidemic on two nodes delivered %d of %d", res.Summary.Delivered, res.Summary.Generated)
	}
}

func TestCascadeDeliversWithinOneContactComponent(t *testing.T) {
	// Chain topology alive at the same instant: 0-1, 1-2, 2-3. A message
	// generated mid-contact must traverse the whole component at once.
	contacts := []trace.Contact{
		{A: 0, B: 1, Start: 0, End: sim.Hour},
		{A: 1, B: 2, Start: 0, End: sim.Hour},
		{A: 2, B: 3, Start: 0, End: sim.Hour},
	}
	tr, err := trace.New("chain", 4, contacts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Trace:           tr,
		Protocol:        protocol.Epidemic,
		Params:          protocol.DefaultParams(30 * sim.Minute),
		Seed:            5,
		WindowFrom:      0,
		WindowTo:        sim.Hour,
		MessageInterval: 5 * sim.Minute,
		GenerationQuiet: 30 * sim.Minute,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Generated == 0 {
		t.Fatal("no messages generated")
	}
	if res.Summary.SuccessRate != 100 {
		t.Errorf("success = %.1f%%, want 100%% in a fully connected component",
			res.Summary.SuccessRate)
	}
	if res.Summary.MeanDelay != 0 {
		t.Errorf("mean delay = %v, want 0 (instantaneous cascade)", res.Summary.MeanDelay)
	}
}

func TestRunCollectsUsage(t *testing.T) {
	res, err := Run(baseConfig(t, protocol.G2GEpidemic))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Usage) != 12 {
		t.Fatalf("usage entries = %d, want one per node", len(res.Usage))
	}
	var signatures int64
	var memory float64
	for _, u := range res.Usage {
		signatures += u.Signatures
		memory += u.MemoryByteSeconds
	}
	if signatures == 0 {
		t.Error("no signatures accounted across the run")
	}
	if memory <= 0 {
		t.Error("memory integral is zero despite live buffers")
	}
	// Per-source stats must cover every node and every message.
	if len(res.Sources) != 12 {
		t.Fatalf("source entries = %d, want one per node", len(res.Sources))
	}
	generated, delivered := 0, 0
	for _, s := range res.Sources {
		generated += s.Generated
		delivered += s.Delivered
	}
	if generated != res.Summary.Generated || delivered != res.Summary.Delivered {
		t.Errorf("per-source generated/delivered %d/%d != summary %d/%d",
			generated, delivered, res.Summary.Generated, res.Summary.Delivered)
	}
}

func TestVanillaUsesNoSignatures(t *testing.T) {
	res, err := Run(baseConfig(t, protocol.Epidemic))
	if err != nil {
		t.Fatal(err)
	}
	var traffic int64
	for n, u := range res.Usage {
		if u.Signatures != 0 || u.Verifications != 0 || u.HeavyHMACIterations != 0 {
			t.Fatalf("vanilla epidemic node %d spent crypto operations: %+v", n, u)
		}
		traffic += u.PayloadTxBytes
	}
	if traffic == 0 {
		t.Error("vanilla epidemic moved no payload bytes")
	}
}

func TestEventLogStreamsJSONLines(t *testing.T) {
	// A JSON sink on Config.TraceSink streams one JSON line per protocol
	// event over a whole run.
	var buf strings.Builder
	cfg := baseConfig(t, protocol.G2GEpidemic)
	cfg.Deviants = []trace.NodeID{2, 7}
	cfg.Deviation = protocol.Dropper
	cfg.TraceSink = obs.NewJSONSink(&buf, obs.LevelDebug)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("no event output")
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < res.Summary.Generated {
		t.Fatalf("only %d event lines for %d messages", len(lines), res.Summary.Generated)
	}
	kinds := map[string]int{}
	for _, line := range lines {
		var rec struct {
			T     string `json:"t"`
			Event string `json:"event"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad event line %q: %v", line, err)
		}
		if rec.T == "" || rec.Event == "" {
			t.Fatalf("incomplete event %q", line)
		}
		kinds[rec.Event]++
	}
	for _, want := range []string{"generate", "replicate", "deliver", "test", "detect"} {
		if kinds[want] == 0 {
			t.Errorf("no %q events logged (saw %v)", want, kinds)
		}
	}
	// The log is a tee: metrics must be identical to a run without it.
	plain := baseConfig(t, protocol.G2GEpidemic)
	plain.Deviants = []trace.NodeID{2, 7}
	plain.Deviation = protocol.Dropper
	ref, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Summary != res.Summary {
		t.Errorf("event log changed the metrics:\n%+v\n%+v", ref.Summary, res.Summary)
	}
}
