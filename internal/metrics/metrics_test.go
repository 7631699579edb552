package metrics

import (
	"reflect"
	"strings"
	"testing"

	"give2get/internal/g2gcrypto"
	"give2get/internal/sim"
	"give2get/internal/trace"
	"give2get/internal/wire"
)

func digest(b byte) g2gcrypto.Digest {
	return g2gcrypto.Hash([]byte{b})
}

func TestSummarizeDelivery(t *testing.T) {
	c := NewCollector()
	c.Generated(digest(1), 0, 0, 1, 0)
	c.Generated(digest(2), 0, 0, 2, 10*sim.Second)
	c.Generated(digest(3), 0, 0, 3, 20*sim.Second)

	c.Delivered(digest(1), 2*sim.Minute)
	c.Delivered(digest(2), 10*sim.Second+4*sim.Minute)
	c.Delivered(digest(1), 9*sim.Minute) // duplicate: ignored

	c.Replicated(digest(1), 0, 1, 0)
	c.Replicated(digest(1), 1, 2, 0)
	c.Replicated(digest(2), 0, 2, 0)

	s := c.Summarize()
	if s.Generated != 3 || s.Delivered != 2 {
		t.Fatalf("generated/delivered = %d/%d", s.Generated, s.Delivered)
	}
	if got := s.SuccessRate; got < 66 || got > 67 {
		t.Errorf("success = %.2f, want ~66.67", got)
	}
	if s.MeanDelay != 3*sim.Minute {
		t.Errorf("mean delay = %v, want 3m", s.MeanDelay)
	}
	if s.TotalReplicas != 3 {
		t.Errorf("total replicas = %d", s.TotalReplicas)
	}
	if s.MeanCost != 1 {
		t.Errorf("mean cost = %v, want 1", s.MeanCost)
	}
	c.Generated(digest(4), 0, 2, 0, 30*sim.Second)
	want := []SourceStats{{Generated: 3, Delivered: 2}, {}, {Generated: 1}, {}}
	if got := c.Sources(4); !reflect.DeepEqual(got, want) {
		t.Errorf("sources = %+v, want %+v", got, want)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := NewCollector().Summarize()
	if s.Generated != 0 || s.SuccessRate != 0 || s.MeanCost != 0 || s.MeanDelay != 0 {
		t.Errorf("empty summary not zero: %+v", s)
	}
}

func TestSummarizeDetection(t *testing.T) {
	c := NewCollector()
	// Node 5 detected 10 minutes after its message's TTL expired; a later
	// duplicate must not overwrite the first record.
	c.Detected(5, wire.ReasonDropped, digest(1), 40*sim.Minute, 30*sim.Minute)
	c.Detected(5, wire.ReasonDropped, digest(2), 50*sim.Minute, 30*sim.Minute)
	// Node 6 detected before the TTL (a destination audit at delivery):
	// the after-TTL metric clamps to zero.
	c.Detected(6, wire.ReasonLied, digest(3), 20*sim.Minute, 30*sim.Minute)
	// Node 9 was never a deviant: a false accusation.
	c.Detected(9, wire.ReasonDropped, digest(4), 45*sim.Minute, 30*sim.Minute)

	s := c.SummarizeDetection([]trace.NodeID{5, 6, 7})
	if s.Deviants != 3 || s.Detected != 2 {
		t.Fatalf("deviants/detected = %d/%d, want 3/2", s.Deviants, s.Detected)
	}
	if s.Rate < 66 || s.Rate > 67 {
		t.Errorf("rate = %.2f, want ~66.67", s.Rate)
	}
	if s.MeanTimeAfterTTL != 5*sim.Minute { // (10m + 0) / 2
		t.Errorf("mean time after TTL = %v, want 5m", s.MeanTimeAfterTTL)
	}
	if s.FalseAccusations != 1 {
		t.Errorf("false accusations = %d, want 1", s.FalseAccusations)
	}
}

func TestSummarizeDetectionEmpty(t *testing.T) {
	s := NewCollector().SummarizeDetection(nil)
	if s.Deviants != 0 || s.Detected != 0 || s.Rate != 0 || s.MeanTimeAfterTTL != 0 {
		t.Errorf("empty detection summary not zero: %+v", s)
	}
}

func TestDetectionsSorted(t *testing.T) {
	c := NewCollector()
	c.Detected(9, wire.ReasonDropped, digest(1), sim.Minute, sim.Minute)
	c.Detected(2, wire.ReasonLied, digest(2), sim.Minute, sim.Minute)
	c.Detected(5, wire.ReasonCheated, digest(3), sim.Minute, sim.Minute)
	ds := c.Detections()
	if len(ds) != 3 || ds[0].Accused != 2 || ds[1].Accused != 5 || ds[2].Accused != 9 {
		t.Errorf("detections = %+v", ds)
	}
}

func TestTestedCounts(t *testing.T) {
	c := NewCollector()
	c.Tested(1, true, 0)
	c.Tested(2, false, 0)
	c.Tested(3, true, 0)
	s := c.Summarize()
	if s.TestsRun != 3 || s.TestsFailed != 1 {
		t.Errorf("tests = %d/%d, want 3/1", s.TestsRun, s.TestsFailed)
	}
}

func TestTableRender(t *testing.T) {
	tbl := NewTable("Fig X", "protocol", "success %", "cost")
	tbl.AddRow("epidemic", 72.5, 14)
	tbl.AddRow("g2g-epidemic", 71.25, 11)
	if len(tbl.rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.rows))
	}
	var b strings.Builder
	if err := tbl.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Fig X", "protocol", "72.50", "g2g-epidemic", "---"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Errorf("lines = %d, want 5", len(lines))
	}
}

func TestDetectionAfterTTLClamp(t *testing.T) {
	d := Detection{At: 10 * sim.Minute, TTLExpiry: 30 * sim.Minute}
	if d.AfterTTL() != 0 {
		t.Errorf("AfterTTL = %v, want 0", d.AfterTTL())
	}
	d = Detection{At: 45 * sim.Minute, TTLExpiry: 30 * sim.Minute}
	if d.AfterTTL() != 15*sim.Minute {
		t.Errorf("AfterTTL = %v, want 15m", d.AfterTTL())
	}
}

func TestTableRenderCSV(t *testing.T) {
	tbl := NewTable("Fig X", "protocol", "success %")
	tbl.AddRow("epidemic", 72.5)
	tbl.AddRow("with,comma", 1.0)
	var b strings.Builder
	if err := tbl.RenderCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "# Fig X\n") {
		t.Errorf("missing title comment:\n%s", out)
	}
	if !strings.Contains(out, "protocol,success %") {
		t.Errorf("missing header row:\n%s", out)
	}
	if !strings.Contains(out, `"with,comma"`) {
		t.Errorf("comma cell not quoted:\n%s", out)
	}
}
