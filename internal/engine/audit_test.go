package engine

import (
	"testing"

	"give2get/internal/invariant"
	"give2get/internal/obs"
	"give2get/internal/protocol"
	"give2get/internal/sim"
	"give2get/internal/trace"
)

// auditConfig is baseConfig with the invariant auditor attached.
func auditConfig(t testing.TB, kind protocol.Kind) Config {
	cfg := baseConfig(t, kind)
	cfg.Audit = &invariant.Options{Label: "engine-test/" + kind.String()}
	return cfg
}

func mustAuditClean(t *testing.T, res *Result) *invariant.Report {
	t.Helper()
	if res.Audit == nil {
		t.Fatal("audited run returned no report")
	}
	if !res.Audit.Ok() {
		t.Fatalf("audit failed: %v", res.Audit.Violations)
	}
	return res.Audit
}

func TestAuditNotRunByDefault(t *testing.T) {
	res, err := Run(baseConfig(t, protocol.Epidemic))
	if err != nil {
		t.Fatal(err)
	}
	if res.Audit != nil {
		t.Fatal("unaudited run carries an audit report")
	}
}

// TestAuditHonestRunsClean is the auditor's core soundness claim: a fully
// honest run of every protocol reports zero violations and zero detections.
func TestAuditHonestRunsClean(t *testing.T) {
	for _, kind := range []protocol.Kind{
		protocol.Epidemic,
		protocol.G2GEpidemic,
		protocol.DelegationFrequency,
		protocol.DelegationLastContact,
		protocol.G2GDelegationFrequency,
		protocol.G2GDelegationLastContact,
	} {
		t.Run(kind.String(), func(t *testing.T) {
			res, err := Run(auditConfig(t, kind))
			if err != nil {
				t.Fatal(err)
			}
			rep := mustAuditClean(t, res)
			if len(rep.Detections) != 0 {
				t.Fatalf("honest run detected %v", rep.Detections)
			}
			if rep.Generated == 0 || rep.Events == 0 {
				t.Fatalf("empty audit: %+v", rep)
			}
		})
	}
}

// TestAuditDeviantRunsClean checks detection completeness end to end: seeded
// deviants are detected, and every detection survives the auditor's
// soundness checks (genuine deviant, right reason, valid PoR/PoM chain,
// universal blacklisting).
func TestAuditDeviantRunsClean(t *testing.T) {
	cases := []struct {
		name      string
		kind      protocol.Kind
		deviation protocol.Deviation
	}{
		{"droppers", protocol.G2GEpidemic, protocol.Dropper},
		{"liars", protocol.G2GDelegationFrequency, protocol.Liar},
		{"cheaters", protocol.G2GDelegationFrequency, protocol.Cheater},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := auditConfig(t, tc.kind)
			cfg.Deviants = []trace.NodeID{2, 7, 10}
			cfg.Deviation = tc.deviation
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rep := mustAuditClean(t, res)
			if len(rep.Detections) == 0 {
				t.Fatal("deviant run produced no detections to audit")
			}
		})
	}
}

// TestAuditRealCryptoClean runs the auditor against the real provider, whose
// PoR/PoM re-verification exercises actual Ed25519 signatures.
func TestAuditRealCryptoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("real crypto is slow")
	}
	cfg := auditConfig(t, protocol.G2GEpidemic)
	cfg.Crypto = CryptoReal
	cfg.Deviants = []trace.NodeID{2, 7}
	cfg.Deviation = protocol.Dropper
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustAuditClean(t, res)
}

// TestAuditDifferentialCrypto is the differential-crypto harness: the fast
// HMAC-simulated provider and the real Ed25519/X25519/AES-GCM provider must
// produce the same forwarding behavior. Message hashes differ per provider
// (so does the order value-irrelevant RNG draws happen in), but the
// protocols below never branch on those values, so the id-keyed event
// digest, the delivery set, and the detection verdicts must match exactly.
func TestAuditDifferentialCrypto(t *testing.T) {
	if testing.Short() {
		t.Skip("real crypto is slow")
	}
	run := func(t *testing.T, kind protocol.Kind, crypto CryptoProvider, deviation protocol.Deviation) *invariant.Report {
		t.Helper()
		cfg := auditConfig(t, kind)
		cfg.Crypto = crypto
		if deviation != protocol.Honest {
			cfg.Deviants = []trace.NodeID{2, 7, 10}
			cfg.Deviation = deviation
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return mustAuditClean(t, res)
	}

	sameDeliveries := func(t *testing.T, fast, real *invariant.Report) {
		t.Helper()
		if len(fast.Deliveries) != len(real.Deliveries) {
			t.Fatalf("delivery sets differ: fast=%d real=%d", len(fast.Deliveries), len(real.Deliveries))
		}
		for i := range fast.Deliveries {
			if fast.Deliveries[i] != real.Deliveries[i] {
				t.Fatalf("delivery %d differs: fast=%d real=%d", i, fast.Deliveries[i], real.Deliveries[i])
			}
		}
	}

	for _, tc := range []struct {
		name string
		kind protocol.Kind
	}{
		{"epidemic", protocol.Epidemic},
		{"delegation-frequency", protocol.DelegationFrequency},
		{"delegation-last-contact", protocol.DelegationLastContact},
		{"g2g-epidemic", protocol.G2GEpidemic},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fast := run(t, tc.kind, CryptoFast, protocol.Honest)
			real := run(t, tc.kind, CryptoReal, protocol.Honest)
			if fast.Digest != real.Digest {
				t.Errorf("event digests differ: fast=%s real=%s", fast.Digest, real.Digest)
			}
			sameDeliveries(t, fast, real)
			if len(fast.Detections)+len(real.Detections) != 0 {
				t.Fatalf("honest runs detected: fast=%v real=%v", fast.Detections, real.Detections)
			}
		})
	}

	// With deviants present the detection VERDICTS are provider-invariant —
	// same accused, reason, and instant — but the exposing message is not:
	// which failing proof of relay a tester challenges first follows
	// hash-ordered iteration. Compare verdicts, not digests.
	t.Run("g2g-epidemic-droppers", func(t *testing.T) {
		fast := run(t, protocol.G2GEpidemic, CryptoFast, protocol.Dropper)
		real := run(t, protocol.G2GEpidemic, CryptoReal, protocol.Dropper)
		sameDeliveries(t, fast, real)
		if len(fast.Detections) != len(real.Detections) {
			t.Fatalf("detection counts differ: fast=%v real=%v", fast.Detections, real.Detections)
		}
		for i := range fast.Detections {
			f, r := fast.Detections[i], real.Detections[i]
			if f.Accused != r.Accused || f.Reason != r.Reason || f.At != r.At {
				t.Fatalf("verdict %d differs: fast=%+v real=%+v", i, f, r)
			}
		}
		if len(fast.Detections) == 0 {
			t.Fatal("dropper run produced no detections to compare")
		}
	})

	// G2G Delegation draws its decoy destinations from the shared RNG, and
	// the drawn values feed quality labels that steer later forwarding — so
	// its behavior is legitimately provider-sensitive. The differential
	// claim weakens to: both providers audit clean.
	t.Run("g2g-delegation-both-clean", func(t *testing.T) {
		run(t, protocol.G2GDelegationFrequency, CryptoFast, protocol.Honest)
		run(t, protocol.G2GDelegationFrequency, CryptoReal, protocol.Honest)
	})
}

// preScheduled handles the reference run's pre-materialized events: one per
// contact start (Op preStart), contact end (preEnd) and generation (preGen),
// P indexing the contact or generation.
type preScheduled struct {
	e        *engine
	contacts []trace.Contact
	gens     []workloadGen
}

const (
	preStart uint32 = iota
	preEnd
	preGen
)

func (p *preScheduled) HandleEvent(s *sim.Simulator, ev sim.Event) {
	switch ev.Op {
	case preStart:
		c := p.contacts[ev.P]
		p.e.contactStart(s.Now(), c.A, c.B)
	case preEnd:
		c := p.contacts[ev.P]
		p.e.contactEnd(c.A, c.B)
	case preGen:
		g := p.gens[ev.P]
		p.e.generate(s.Now(), g.src, g.dst, g.body)
	}
}

// runPreScheduled is the reference run of TestAuditDifferentialScheduling:
// the run as the engine made it before streaming scheduling, with every
// contact start, contact end and generation pre-materialized before the
// kernel starts, all in the periodic band, so scheduling order alone decides
// which of them, the memory ticks and the phase probes fires first within
// an instant. The engine, the memory sampler, the phase probes and the
// result assembly are the production ones.
func runPreScheduled(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e, err := newEngine(cfg)
	if err != nil {
		return nil, err
	}
	s := sim.New()
	s.SetStats(&e.metrics.Sim)
	tr, err := trace.Materialize(cfg.Trace)
	if err != nil {
		return nil, err
	}
	p := &preScheduled{e: e}
	schedule := func(at sim.Time, op uint32, idx int) error {
		return s.ScheduleEvent(sim.Event{At: at, Pri: priPeriodic, H: p, Op: op, P: uint64(idx)})
	}
	for _, c := range tr.Contacts() {
		if c.End <= e.startAt || c.Start >= e.endAt {
			continue
		}
		start, end := e.clampContact(c)
		p.contacts = append(p.contacts, c)
		if err := schedule(start, preStart, len(p.contacts)-1); err != nil {
			return nil, err
		}
		if err := schedule(end, preEnd, len(p.contacts)-1); err != nil {
			return nil, err
		}
	}
	genEnd := cfg.WindowTo - cfg.GenerationQuiet
	population := cfg.Trace.Nodes()
	at := cfg.WindowFrom + e.workloadRNG.Exp(cfg.MessageInterval)
	for at < genEnd {
		src := trace.NodeID(e.workloadRNG.Intn(population))
		dst := trace.NodeID(e.workloadRNG.Intn(population))
		for dst == src {
			dst = trace.NodeID(e.workloadRNG.Intn(population))
		}
		body := make([]byte, payloadBytes)
		e.workloadRNG.Bytes(body)
		p.gens = append(p.gens, workloadGen{at: at, src: src, dst: dst, body: body})
		if err := schedule(at, preGen, len(p.gens)-1); err != nil {
			return nil, err
		}
		at += e.workloadRNG.Exp(cfg.MessageInterval)
	}
	if err := e.scheduleMemorySampling(s); err != nil {
		return nil, err
	}
	if cfg.WindowFrom >= e.startAt {
		if err := e.schedulePeriodic(s, cfg.WindowFrom, opWindowFrom); err != nil {
			return nil, err
		}
	}
	if err := e.schedulePeriodic(s, cfg.WindowTo, opWindowTo); err != nil {
		return nil, err
	}
	if e.startAt < cfg.WindowFrom {
		e.emitPhase(e.startAt, obs.PhaseWarmup)
	}
	return e.finishRun(s)
}

// TestAuditDifferentialScheduling is the in-process differential oracle for
// the streaming event-queue rewrite: the same audited quick run executed
// with every event pre-scheduled in one band (runPreScheduled) and with
// streaming typed events in per-contact bands must produce byte-identical
// audit digests, deliveries, and detections. Any drift in same-instant event
// ordering — the subtle failure mode of lazy scheduling — shows up here as a
// digest mismatch.
func TestAuditDifferentialScheduling(t *testing.T) {
	cases := []struct {
		name      string
		kind      protocol.Kind
		deviation protocol.Deviation
	}{
		{"epidemic", protocol.Epidemic, protocol.Honest},
		{"g2g-epidemic", protocol.G2GEpidemic, protocol.Honest},
		{"g2g-epidemic-droppers", protocol.G2GEpidemic, protocol.Dropper},
		{"g2g-delegation-frequency", protocol.G2GDelegationFrequency, protocol.Honest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(legacy bool) *invariant.Report {
				cfg := auditConfig(t, tc.kind)
				if tc.deviation != protocol.Honest {
					cfg.Deviants = []trace.NodeID{2, 7, 10}
					cfg.Deviation = tc.deviation
				}
				runner := Run
				if legacy {
					runner = runPreScheduled
				}
				res, err := runner(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return mustAuditClean(t, res)
			}
			legacy := run(true)
			streaming := run(false)
			if legacy.Digest != streaming.Digest {
				t.Errorf("audit digests differ: legacy=%s streaming=%s",
					legacy.Digest, streaming.Digest)
			}
			if legacy.Events != streaming.Events {
				t.Errorf("event counts differ: legacy=%d streaming=%d",
					legacy.Events, streaming.Events)
			}
			if len(legacy.Deliveries) != len(streaming.Deliveries) {
				t.Fatalf("delivery sets differ: legacy=%d streaming=%d",
					len(legacy.Deliveries), len(streaming.Deliveries))
			}
			for i := range legacy.Deliveries {
				if legacy.Deliveries[i] != streaming.Deliveries[i] {
					t.Fatalf("delivery %d differs", i)
				}
			}
			if len(legacy.Detections) != len(streaming.Detections) {
				t.Fatalf("detection counts differ: legacy=%d streaming=%d",
					len(legacy.Detections), len(streaming.Detections))
			}
			for i := range legacy.Detections {
				l, s := legacy.Detections[i], streaming.Detections[i]
				if l.Accused != s.Accused || l.Reason != s.Reason || l.At != s.At {
					t.Fatalf("detection %d differs: legacy=%+v streaming=%+v", i, l, s)
				}
			}
		})
	}
}
