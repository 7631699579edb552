package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"give2get/internal/obs"
)

// metric is one named, unit-carrying number the benchmark prints. basis
// says how a derived value was formed (a ratio's numerator and denominator,
// a model's count and per-operation cost) so no ratio is printed without
// its base.
type metric struct {
	name  string
	unit  string
	value float64
	basis string
}

// ratio divides, reporting 0 for an empty denominator, and records both
// operands in the basis.
func ratio(name, unit string, num, den, scale float64) metric {
	m := metric{name: name, unit: unit, basis: fmt.Sprintf("%s / %s", fmtNum(num), fmtNum(den))}
	if den != 0 {
		m.value = num / den * scale
	}
	return m
}

// model multiplies an exact count by a per-operation cost in ns, giving
// modelled seconds.
func model(name string, count, ns float64) metric {
	return metric{
		name:  name,
		unit:  "s",
		value: count * ns / 1e9,
		basis: fmt.Sprintf("%s × %s ns", fmtNum(count), fmtNum(ns)),
	}
}

// beside adds to a model's basis the traced time it is to be read against,
// so a gap between the two shows on the same line.
func (m metric) beside(what string, d time.Duration) metric {
	m.basis += fmt.Sprintf(" (traced %s %.4f s)", what, d.Seconds())
	return m
}

func count(name string, v int64) metric {
	return metric{name: name, unit: "count", value: float64(v)}
}

func seconds(name string, d time.Duration) metric {
	return metric{name: name, unit: "s", value: d.Seconds()}
}

func fmtNum(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.4g", v)
}

// median of a sample; 0 for an empty one.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// The program's span names (obs.Span.String) the ledger reads.
var programSpans = []string{
	"trace_load", "contact_schedule", "session", "relay", "test", "decide",
	"por", "pom", "crypto_hmac", "audit", "sweep_dispatch", "shard_warmup",
}

func spanSelf(tel *obs.Snapshot, name string) time.Duration {
	for _, s := range tel.Spans {
		if s.Name == name {
			return time.Duration(s.SelfNS)
		}
	}
	return 0
}

func spanCount(tel *obs.Snapshot, name string) int64 {
	for _, s := range tel.Spans {
		if s.Name == name {
			return s.Count
		}
	}
	return 0
}

// tracedExec is everything the per-layer ledger is computed from: the
// traced execution, the median walls of untraced audited and unaudited
// executions of the same inputs, the benchmark's set-up spans and the
// outside passes.
type tracedExec struct {
	traced                     *outcome
	auditedWall, unauditedWall time.Duration
	// setupSelf is the self time of the benchmark's set-up spans by name.
	setupSelf map[string]time.Duration
	pass      passes
	gc        gcSample
	jobs      int
	// experiment marks a workload that runs through experiments.Run (the
	// runner layer); single runs call give2get.Run directly.
	experiment bool
}

// perLayer assembles the per-layer metrics, in layer order.
func perLayer(x tracedExec) []metric {
	tel := x.traced.tel
	var ms []metric
	add := func(m ...metric) { ms = append(ms, m...) }

	// trace
	add(
		metric{name: "trace.contacts", unit: "count", value: x.pass.contacts},
		metric{name: "trace.next_ns", unit: "ns", value: x.pass.nextNS},
		model("trace.stream_s", x.pass.contacts, x.pass.nextNS).
			beside("contact_schedule self", spanSelf(tel, "contact_schedule")),
		seconds("trace.write_s", x.setupSelf["setup.write"]),
	)

	// sim
	add(
		count("sim.events", tel.Sim.EventsFired),
		count("sim.queue_high_water", tel.Sim.QueueHighWater),
		metric{name: "sim.event_ns", unit: "ns", value: x.pass.eventNS},
		model("sim.kernel_s", float64(tel.Sim.EventsFired), x.pass.eventNS),
	)

	// engine
	add(
		count("engine.contacts_replayed", tel.Engine.ContactsReplayed),
		count("engine.sessions", tel.Engine.SessionsRun),
		ratio("engine.session_yield", "ratio", float64(tel.Engine.SessionsMoved), float64(tel.Engine.SessionsRun), 1),
		count("engine.cascades", tel.Engine.Cascades),
		seconds("engine.warmup_s", time.Duration(tel.Engine.Phases.Warmup.WallNS)),
		seconds("engine.window_s", time.Duration(tel.Engine.Phases.Window.WallNS)),
		seconds("engine.drain_s", time.Duration(tel.Engine.Phases.Drain.WallNS)),
	)

	// protocol
	for _, sp := range []string{"session", "relay", "test", "decide", "por", "pom"} {
		add(seconds("protocol."+sp+"_self_s", spanSelf(tel, sp)))
	}
	add(
		count("protocol.tests", tel.Protocol.TestsStarted),
		count("protocol.tests_failed", tel.Protocol.TestsFailed),
		count("protocol.quality_updates", tel.Protocol.QualityUpdates),
		ratio("protocol.relay_accept_ratio", "ratio",
			float64(tel.Protocol.Wire["RELAY_OK"].Count), float64(tel.Protocol.Wire["RELAY_RQST"].Count), 1),
	)

	// wire
	var wireMsgs int64
	for _, w := range tel.Protocol.Wire {
		wireMsgs += w.Count
	}
	kinds := strings.Join(x.pass.wireKinds, "+")
	signs, verifies := float64(tel.Crypto.Sign.Count), float64(tel.Crypto.Verify.Count)
	add(
		count("wire.messages", wireMsgs),
		metric{name: "wire.bytes", unit: "bytes", value: float64(tel.Protocol.WireBytesTotal)},
		metric{name: "wire.sign_ns", unit: "ns", value: x.pass.wireSignNS, basis: "kinds " + kinds},
		metric{name: "wire.verify_ns", unit: "ns", value: x.pass.wireVerifyNS, basis: "kinds " + kinds},
		metric{
			name:  "wire.envelope_model_s",
			unit:  "s",
			value: (signs*x.pass.wireSignNS + verifies*x.pass.wireVerifyNS) / 1e9,
			basis: fmt.Sprintf("%s × %s ns + %s × %s ns", fmtNum(signs), fmtNum(x.pass.wireSignNS),
				fmtNum(verifies), fmtNum(x.pass.wireVerifyNS)),
		}.beside("sign+verify", time.Duration(tel.Crypto.Sign.TotalNS+tel.Crypto.Verify.TotalNS)),
	)

	// g2gcrypto
	c := tel.Crypto
	var poolJobs, poolFlushes float64
	if c.Pool != nil {
		poolJobs, poolFlushes = float64(c.Pool.Jobs), float64(c.Pool.Flushes)
	}
	add(
		count("g2gcrypto.signs", c.Sign.Count),
		count("g2gcrypto.verifies", c.Verify.Count),
		count("g2gcrypto.seals", c.Seal.Count),
		count("g2gcrypto.opens", c.Open.Count),
		count("g2gcrypto.hmacs", c.HeavyHMAC.Count),
		count("g2gcrypto.hmac_iterations", c.HeavyHMACIterations),
		seconds("g2gcrypto.sign_s", time.Duration(c.Sign.TotalNS)),
		seconds("g2gcrypto.verify_s", time.Duration(c.Verify.TotalNS)),
		seconds("g2gcrypto.hmac_s", time.Duration(c.HeavyHMAC.TotalNS)),
		metric{name: "g2gcrypto.sign_ns", unit: "ns", value: x.pass.signNS},
		metric{name: "g2gcrypto.verify_ns", unit: "ns", value: x.pass.verifyNS},
		metric{name: "g2gcrypto.hmac_ns", unit: "ns", value: x.pass.hmacNS},
		model("g2gcrypto.sign_model_s", signs, x.pass.signNS).beside("sign", time.Duration(c.Sign.TotalNS)),
		model("g2gcrypto.verify_model_s", verifies, x.pass.verifyNS).beside("verify", time.Duration(c.Verify.TotalNS)),
		model("g2gcrypto.hmac_model_s", float64(c.HeavyHMAC.Count), x.pass.hmacNS).
			beside("heavy HMAC", time.Duration(c.HeavyHMAC.TotalNS)),
		ratio("g2gcrypto.pool_jobs_per_flush", "ratio", poolJobs, poolFlushes, 1),
	)

	// invariant
	// An experiment returns no audit reports (a violation fails it); its
	// auditor's events are the count of the audit span.
	auditEvents, violations := spanCount(tel, "audit"), int64(0)
	if a := x.traced.audit; a != nil {
		auditEvents, violations = a.Events, int64(a.TotalViolations)
	}
	add(
		count("invariant.events", auditEvents),
		count("invariant.violations", violations),
		seconds("invariant.audit_self_s", spanSelf(tel, "audit")),
		metric{
			name:  "invariant.overhead_s",
			unit:  "s",
			value: (x.auditedWall - x.unauditedWall).Seconds(),
			basis: fmt.Sprintf("audited %.4fs - unaudited %.4fs (untraced medians)",
				x.auditedWall.Seconds(), x.unauditedWall.Seconds()),
		},
	)

	// runner: only an experiment goes through it.
	var busy time.Duration
	runs, failed := 0, 0
	if x.experiment {
		for _, w := range x.traced.runWalls {
			busy += w
		}
		runs, failed = x.traced.runs, x.traced.failed
	}
	wall := x.traced.wall
	jobs := float64(x.jobs)
	straggler := time.Duration(0)
	effNum, effDen := 0.0, 0.0
	if x.experiment {
		straggler = wall - time.Duration(float64(busy)/jobs)
		effNum, effDen = busy.Seconds(), jobs*wall.Seconds()
	}
	add(
		count("runner.runs", int64(runs)),
		// The benchmark runs batches without retries, so this stays 0
		// unless the option is switched on.
		count("runner.retries", 0),
		count("runner.failed", int64(failed)),
		seconds("runner.busy_s", busy),
		ratio("runner.parallel_eff", "ratio", effNum, effDen, 1),
		seconds("runner.straggler_s", straggler),
	)

	// mobility, kclique
	add(
		seconds("mobility.generate_s", x.setupSelf["setup.generate"]),
		seconds("kclique.detect_s", x.pass.detect),
	)

	// obs: the program's own spans against the run wall they fall in (for
	// an experiment, the summed per-run walls its workers were busy).
	var selfSum time.Duration
	for _, sp := range programSpans {
		selfSum += spanSelf(tel, sp)
	}
	runWall := wall
	if x.experiment {
		runWall = busy
	}
	add(
		ratio("obs.tracing_overhead_pct", "%", (x.traced.wall-x.auditedWall).Seconds(), x.auditedWall.Seconds(), 100),
		ratio("obs.attributed_pct", "%", selfSum.Seconds(), runWall.Seconds(), 100),
	)

	// gc
	add(
		metric{name: "gc.alloc_mb", unit: "MB", value: float64(x.gc.allocBytes) / (1 << 20)},
		count("gc.cycles", int64(x.gc.cycles)),
		metric{name: "gc.cpu_s", unit: "s", value: x.gc.cpuSeconds},
	)
	return ms
}

// busyPairs name, per layer, a count and the busy time that must be
// non-zero whenever the count is: a layer that did work in no time is a
// broken timer (zeroed telemetry), not a fast layer.
var busyPairs = [][2]string{
	{"trace.contacts", "trace.next_ns"},
	{"sim.events", "sim.event_ns"},
	{"engine.contacts_replayed", "engine.window_s"},
	{"engine.sessions", "protocol.session_self_s"},
	{"protocol.tests", "protocol.test_self_s"},
	{"wire.messages", "wire.sign_ns"},
	{"g2gcrypto.signs", "g2gcrypto.sign_s"},
	{"g2gcrypto.verifies", "g2gcrypto.verify_s"},
	{"g2gcrypto.hmacs", "g2gcrypto.hmac_s"},
	{"g2gcrypto.hmacs", "g2gcrypto.hmac_ns"},
	{"invariant.events", "invariant.audit_self_s"},
	{"runner.runs", "runner.busy_s"},
}

// checkBusy reports every layer with a non-zero count but zero busy time.
func checkBusy(ms []metric) []string {
	byName := make(map[string]float64, len(ms))
	for _, m := range ms {
		byName[m.name] = m.value
	}
	var out []string
	for _, p := range busyPairs {
		if byName[p[0]] != 0 && byName[p[1]] == 0 {
			out = append(out, fmt.Sprintf("layer %s: %s = %s but %s = 0",
				strings.SplitN(p[0], ".", 2)[0], p[0], fmtNum(byName[p[0]]), p[1]))
		}
	}
	return out
}

// countsMatch compares the layer counts two executions of the same inputs
// report; they must agree exactly whether or not tracing was on.
func countsMatch(a, b *obs.Snapshot) []string {
	type pair struct {
		name string
		x, y int64
	}
	pairs := []pair{
		{"sim.events_fired", a.Sim.EventsFired, b.Sim.EventsFired},
		{"sim.events_scheduled", a.Sim.EventsScheduled, b.Sim.EventsScheduled},
		{"sim.queue_high_water", a.Sim.QueueHighWater, b.Sim.QueueHighWater},
		{"engine.contacts_replayed", a.Engine.ContactsReplayed, b.Engine.ContactsReplayed},
		{"engine.sessions", a.Engine.SessionsRun, b.Engine.SessionsRun},
		{"engine.sessions_moved", a.Engine.SessionsMoved, b.Engine.SessionsMoved},
		{"engine.cascades", a.Engine.Cascades, b.Engine.Cascades},
		{"engine.messages_generated", a.Engine.MessagesGenerated, b.Engine.MessagesGenerated},
		{"engine.messages_delivered", a.Engine.MessagesDelivered, b.Engine.MessagesDelivered},
		{"protocol.tests", a.Protocol.TestsStarted, b.Protocol.TestsStarted},
		{"protocol.tests_failed", a.Protocol.TestsFailed, b.Protocol.TestsFailed},
		{"protocol.quality_updates", a.Protocol.QualityUpdates, b.Protocol.QualityUpdates},
		{"wire.bytes", a.Protocol.WireBytesTotal, b.Protocol.WireBytesTotal},
		{"g2gcrypto.signs", a.Crypto.Sign.Count, b.Crypto.Sign.Count},
		{"g2gcrypto.verifies", a.Crypto.Verify.Count, b.Crypto.Verify.Count},
		{"g2gcrypto.seals", a.Crypto.Seal.Count, b.Crypto.Seal.Count},
		{"g2gcrypto.opens", a.Crypto.Open.Count, b.Crypto.Open.Count},
		{"g2gcrypto.hmacs", a.Crypto.HeavyHMAC.Count, b.Crypto.HeavyHMAC.Count},
		{"g2gcrypto.hmac_iterations", a.Crypto.HeavyHMACIterations, b.Crypto.HeavyHMACIterations},
	}
	for k, w := range a.Protocol.Wire {
		pairs = append(pairs, pair{"wire." + k, w.Count, b.Protocol.Wire[k].Count})
	}
	for k, w := range b.Protocol.Wire {
		if _, ok := a.Protocol.Wire[k]; !ok {
			pairs = append(pairs, pair{"wire." + k, 0, w.Count})
		}
	}
	var out []string
	for _, p := range pairs {
		if p.x != p.y {
			out = append(out, fmt.Sprintf("%s: %d untraced vs %d traced", p.name, p.x, p.y))
		}
	}
	sort.Strings(out)
	return out
}
