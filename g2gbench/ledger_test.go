package main

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"give2get/internal/obs"
)

func TestRatioCarriesItsBase(t *testing.T) {
	m := ratio("protocol.relay_accept_ratio", "ratio", 36210, 1388641, 1)
	if want := 36210.0 / 1388641; math.Abs(m.value-want) > 1e-15 {
		t.Errorf("value = %v, want %v", m.value, want)
	}
	if m.basis != "36210 / 1388641" {
		t.Errorf("basis = %q", m.basis)
	}
	pct := ratio("obs.attributed_pct", "%", 3.44, 3.25, 100)
	if want := 3.44 / 3.25 * 100; math.Abs(pct.value-want) > 1e-12 {
		t.Errorf("pct = %v, want %v (an over-attributed ledger is reported as measured)", pct.value, want)
	}
	empty := ratio("runner.parallel_eff", "ratio", 0, 0, 1)
	if empty.value != 0 || empty.basis != "0 / 0" {
		t.Errorf("empty ratio = %+v, want 0 with basis 0 / 0", empty)
	}
}

func TestModelSeconds(t *testing.T) {
	m := model("g2gcrypto.sign_model_s", 2_890_000, 350)
	if want := 2_890_000 * 350 / 1e9; math.Abs(m.value-want) > 1e-12 || m.unit != "s" {
		t.Errorf("model = %v %s, want %v s", m.value, m.unit, want)
	}
	if m.basis != "2890000 × 350 ns" {
		t.Errorf("basis = %q", m.basis)
	}
	b := m.beside("sign", 1250*time.Millisecond)
	if b.value != m.value || b.basis != "2890000 × 350 ns (traced sign 1.2500 s)" {
		t.Errorf("beside = %v %q", b.value, b.basis)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if !reflect.DeepEqual(in, []float64{3, 1, 2}) {
		t.Error("median reordered its input")
	}
}

func TestSelfTimesSubtractDirectChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Exec: "a", Name: "setup", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Exec: "a", Name: "setup.generate", StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, Exec: "a", Name: "setup.write", StartNS: 40, EndNS: 90},
		{ID: 4, Parent: 3, Exec: "a", Name: "flush", StartNS: 50, EndNS: 60},
		{ID: 5, Exec: "b", Name: "setup", StartNS: 200, EndNS: 300},
	}
	got := selfTimes(spans, "a")
	want := map[string]time.Duration{"setup": 20, "setup.generate": 30, "setup.write": 40, "flush": 10}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestSpanLogNests(t *testing.T) {
	l := newSpanLog()
	l.setExec("x")
	endOuter := l.begin("outer")
	endInner := l.begin("inner")
	time.Sleep(time.Millisecond)
	endInner()
	endOuter()
	l.setExec("y")
	l.begin("root")()
	if len(l.spans) != 3 {
		t.Fatalf("%d spans, want 3", len(l.spans))
	}
	outer, inner, root := l.spans[0], l.spans[1], l.spans[2]
	if inner.Parent != outer.ID || outer.Parent != 0 || root.Parent != 0 {
		t.Errorf("parents: outer %d inner %d root %d", outer.Parent, inner.Parent, root.Parent)
	}
	if inner.Exec != "x" || root.Exec != "y" {
		t.Errorf("exec ids: inner %q root %q", inner.Exec, root.Exec)
	}
	if inner.wall() <= 0 || outer.wall() < inner.wall() {
		t.Errorf("walls: outer %v inner %v", outer.wall(), inner.wall())
	}
	self := selfTimes(l.spans, "x")
	if self["outer"] != outer.wall()-inner.wall() {
		t.Errorf("outer self %v, want %v", self["outer"], outer.wall()-inner.wall())
	}
}

func TestCheckBusyRejectsZeroTimers(t *testing.T) {
	ms := []metric{
		{name: "g2gcrypto.hmacs", value: 738},
		{name: "g2gcrypto.hmac_s", value: 0},
		{name: "g2gcrypto.hmac_ns", value: 5e5},
		{name: "g2gcrypto.signs", value: 0},
		{name: "g2gcrypto.sign_s", value: 0},
		{name: "sim.events", value: 10},
		{name: "sim.event_ns", value: 250},
	}
	got := checkBusy(ms)
	if len(got) != 1 || !strings.Contains(got[0], "g2gcrypto.hmac_s = 0") {
		t.Errorf("checkBusy = %q, want exactly the zeroed HMAC timer", got)
	}
}

func TestParseProgress(t *testing.T) {
	text := "run 1/4 Infocom05/g2g-delegation-last-contact: done (1.25s)\n" +
		"run 2/4 Cambridge06/g2g-delegation-last-contact: done (0.50s)\n" +
		"run 3/4 Infocom05/g2g-delegation-last-contact: FAILED: invariant: boom (0.10s)\n" +
		"fig7 Infocom05 dropper=10 outsiders=false time=13.2m rate=100%\n"
	p, err := parseProgress(text)
	if err != nil {
		t.Fatal(err)
	}
	if p.total != 4 || p.failed != 2 {
		t.Errorf("total %d failed %d, want 4 and 2 (one failed, one never ran)", p.total, p.failed)
	}
	want := []time.Duration{1250 * time.Millisecond, 500 * time.Millisecond, 100 * time.Millisecond}
	if !reflect.DeepEqual(p.walls, want) {
		t.Errorf("walls = %v, want %v", p.walls, want)
	}
	if p.bySource["Infocom05"] != 2 || p.bySource["Cambridge06"] != 1 {
		t.Errorf("bySource = %v", p.bySource)
	}
	if _, err := parseProgress("run 1/2 broken line\n"); err == nil {
		t.Error("malformed progress line accepted")
	}
}

func TestCountsMatchAndAdd(t *testing.T) {
	run := func(events, signs int64) *obs.Snapshot {
		s := &obs.Snapshot{}
		s.Sim.EventsFired = events
		s.Sim.QueueHighWater = events / 2
		s.Crypto.Sign.Count = signs
		s.Protocol.Wire = map[string]obs.WireStat{"RELAY_RQST": {Count: signs, Bytes: 10 * signs}}
		return s
	}
	sum := addCounts(addCounts(nil, run(10, 3)), run(20, 4))
	if sum.Sim.EventsFired != 30 || sum.Sim.QueueHighWater != 10 || sum.Crypto.Sign.Count != 7 ||
		sum.Protocol.Wire["RELAY_RQST"].Bytes != 70 {
		t.Errorf("addCounts = %+v", sum)
	}
	if d := countsMatch(sum, sum); len(d) != 0 {
		t.Errorf("identical snapshots differ: %v", d)
	}
	other := addCounts(nil, run(30, 7))
	d := countsMatch(sum, other)
	if len(d) != 1 || !strings.HasPrefix(d[0], "sim.queue_high_water") {
		t.Errorf("countsMatch = %v, want only the high-water mark", d)
	}
}

func TestDrawsAreDeterministic(t *testing.T) {
	if deriveSeed(7, streamSim) != deriveSeed(7, streamSim) || deriveSeed(7, streamSim) == deriveSeed(8, streamSim) {
		t.Error("deriveSeed is not a function of its seed")
	}
	if drawSeed(7, 0) == drawSeed(7, 1) {
		t.Error("draws share a seed")
	}
	d := infocomDroppers(41)
	seen := map[int]bool{}
	for _, n := range d {
		if n < 0 || n >= 41 || seen[n] {
			t.Fatalf("droppers %v: out of range or repeated", d)
		}
		seen[n] = true
	}
	if len(seen) != 10 {
		t.Errorf("%d droppers, want 10", len(seen))
	}
}
