package invariant

import (
	"strings"
	"testing"

	"give2get/internal/g2gcrypto"
	"give2get/internal/message"
	"give2get/internal/protocol"
	"give2get/internal/sim"
	"give2get/internal/trace"
	"give2get/internal/wire"
)

const d1 = 10 * sim.Minute

func testSys(t *testing.T) g2gcrypto.System {
	t.Helper()
	sys, err := g2gcrypto.NewFast(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func newTestAuditor(t *testing.T, mod func(*Config)) *Auditor {
	t.Helper()
	cfg := Config{Sys: testSys(t), Params: protocol.DefaultParams(d1), Population: 8}
	if mod != nil {
		mod(&cfg)
	}
	return New(cfg)
}

func h(b byte) g2gcrypto.Digest { return g2gcrypto.Digest{b} }

// finalizeClean hands Finalize aggregates copied from the shadow model
// itself, so only the online checks decide the verdict.
func finalizeClean(a *Auditor) *Report {
	return a.Finalize(Finalization{
		SummaryGenerated:   a.generated,
		SummaryDelivered:   a.delivered,
		SummaryReplicas:    a.replicated,
		SummaryTestsRun:    a.testsRun,
		SummaryTestsFailed: a.testsFail,
	})
}

func wantRule(t *testing.T, rep *Report, rule string) {
	t.Helper()
	for _, v := range rep.Violations {
		if v.Rule == rule {
			return
		}
	}
	t.Fatalf("report lacks violation %q; got %v", rule, rep.Violations)
}

func wantClean(t *testing.T, rep *Report) {
	t.Helper()
	if !rep.Ok() {
		t.Fatalf("expected a clean report, got %v", rep.Violations)
	}
}

func TestCleanLifecycle(t *testing.T) {
	a := newTestAuditor(t, nil)
	id := message.MakeID(1, 1)
	a.Generated(h(1), id, 1, 2, 0)
	a.Replicated(h(1), 1, 3, sim.Minute)
	a.Delivered(h(1), 2*sim.Minute)
	rep := finalizeClean(a)
	wantClean(t, rep)
	if rep.Generated != 1 || rep.Replicated != 1 || rep.Delivered != 1 {
		t.Fatalf("counts = %d/%d/%d, want 1/1/1", rep.Generated, rep.Replicated, rep.Delivered)
	}
	if len(rep.Deliveries) != 1 || rep.Deliveries[0] != uint64(id) {
		t.Fatalf("deliveries = %v, want [%d]", rep.Deliveries, uint64(id))
	}
	if rep.Events != 3 {
		t.Fatalf("events = %d, want 3", rep.Events)
	}
	if len(rep.Digest) != 64 {
		t.Fatalf("digest = %q, want 64 hex chars", rep.Digest)
	}
}

func TestDuplicateDeliveryIsLegal(t *testing.T) {
	// Several custodians can meet the destination within one contact
	// instant; only the first delivery counts.
	a := newTestAuditor(t, nil)
	a.Generated(h(1), message.MakeID(1, 1), 1, 2, 0)
	a.Delivered(h(1), sim.Minute)
	a.Delivered(h(1), sim.Minute)
	rep := finalizeClean(a)
	wantClean(t, rep)
	if rep.Delivered != 1 || len(rep.Deliveries) != 1 {
		t.Fatalf("delivered = %d (%v), want a single counted delivery", rep.Delivered, rep.Deliveries)
	}
}

func TestOrphanEvents(t *testing.T) {
	a := newTestAuditor(t, func(c *Config) { c.Deviants = []trace.NodeID{3}; c.Deviation = protocol.Dropper })
	a.Replicated(h(9), 1, 2, sim.Minute)
	a.Delivered(h(9), sim.Minute)
	a.Detected(3, wire.ReasonDropped, h(9), sim.Minute, sim.Minute)
	rep := finalizeClean(a)
	wantRule(t, rep, RuleOrphanReplicate)
	wantRule(t, rep, RuleOrphanDeliver)
	wantRule(t, rep, RuleOrphanDetect)
}

func TestDuplicateGenerate(t *testing.T) {
	a := newTestAuditor(t, nil)
	a.Generated(h(1), message.MakeID(1, 1), 1, 2, 0)
	a.Generated(h(1), message.MakeID(1, 2), 1, 2, sim.Minute)
	wantRule(t, finalizeClean(a), RuleDuplicateGenerate)
}

func TestSelfAddressed(t *testing.T) {
	a := newTestAuditor(t, nil)
	a.Generated(h(1), message.MakeID(4, 1), 4, 4, 0)
	wantRule(t, finalizeClean(a), RuleSelfAddressed)
}

func TestSelfRelay(t *testing.T) {
	a := newTestAuditor(t, nil)
	a.Generated(h(1), message.MakeID(1, 1), 1, 2, 0)
	a.Replicated(h(1), 3, 3, sim.Minute)
	wantRule(t, finalizeClean(a), RuleSelfRelay)
}

func TestDuplicateHandoff(t *testing.T) {
	a := newTestAuditor(t, nil)
	a.Generated(h(1), message.MakeID(1, 1), 1, 2, 0)
	a.Replicated(h(1), 1, 3, sim.Minute)
	a.Replicated(h(1), 1, 3, 2*sim.Minute)
	wantRule(t, finalizeClean(a), RuleDuplicateHandoff)
}

func TestTimeTravel(t *testing.T) {
	a := newTestAuditor(t, nil)
	a.Generated(h(1), message.MakeID(1, 1), 1, 2, 5*sim.Minute)
	a.Replicated(h(1), 1, 3, sim.Minute)
	wantRule(t, finalizeClean(a), RuleTimeTravel)
}

func TestPostTTL(t *testing.T) {
	a := newTestAuditor(t, nil)
	a.Generated(h(1), message.MakeID(1, 1), 1, 2, 0)
	a.Replicated(h(1), 1, 3, d1) // exactly at expiry is already too late
	a.Delivered(h(1), d1+sim.Second)
	rep := finalizeClean(a)
	wantRule(t, rep, RulePostTTLRelay)
	wantRule(t, rep, RulePostTTLDeliver)
}

func TestDetectionSoundness(t *testing.T) {
	t.Run("honest run must stay silent", func(t *testing.T) {
		a := newTestAuditor(t, nil)
		a.Generated(h(1), message.MakeID(1, 1), 1, 2, 0)
		a.Detected(3, wire.ReasonDropped, h(1), sim.Minute, d1)
		wantRule(t, finalizeClean(a), RuleUnexpectedDetection)
	})
	t.Run("accused must be a genuine deviant", func(t *testing.T) {
		a := newTestAuditor(t, func(c *Config) { c.Deviants = []trace.NodeID{5}; c.Deviation = protocol.Dropper })
		a.Generated(h(1), message.MakeID(1, 1), 1, 2, 0)
		a.Detected(3, wire.ReasonDropped, h(1), sim.Minute, d1)
		wantRule(t, finalizeClean(a), RuleFalseAccusation)
	})
	t.Run("reason must match the played deviation", func(t *testing.T) {
		a := newTestAuditor(t, func(c *Config) { c.Deviants = []trace.NodeID{3}; c.Deviation = protocol.Dropper })
		a.Generated(h(1), message.MakeID(1, 1), 1, 2, 0)
		a.Detected(3, wire.ReasonLied, h(1), sim.Minute, d1)
		wantRule(t, finalizeClean(a), RuleWrongReason)
	})
	t.Run("genuine detection is clean", func(t *testing.T) {
		a := newTestAuditor(t, func(c *Config) { c.Deviants = []trace.NodeID{3}; c.Deviation = protocol.Dropper })
		a.Generated(h(1), message.MakeID(1, 1), 1, 2, 0)
		a.Detected(3, wire.ReasonDropped, h(1), d1+sim.Minute, d1)
		rep := finalizeClean(a)
		wantClean(t, rep)
		if len(rep.Detections) != 1 || rep.Detections[0].Accused != 3 {
			t.Fatalf("detections = %v", rep.Detections)
		}
	})
}

func TestDetectionWindow(t *testing.T) {
	t.Run("reported expiry must be generation plus delta1", func(t *testing.T) {
		a := newTestAuditor(t, func(c *Config) { c.Deviants = []trace.NodeID{3}; c.Deviation = protocol.Dropper })
		a.Generated(h(1), message.MakeID(1, 1), 1, 2, 0)
		a.Detected(3, wire.ReasonDropped, h(1), sim.Minute, d1+sim.Second)
		wantRule(t, finalizeClean(a), RuleTTLMismatch)
	})
	t.Run("no detection after the state-discard deadline", func(t *testing.T) {
		a := newTestAuditor(t, func(c *Config) { c.Deviants = []trace.NodeID{3}; c.Deviation = protocol.Dropper })
		a.Generated(h(1), message.MakeID(1, 1), 1, 2, 0)
		a.Detected(3, wire.ReasonDropped, h(1), 2*d1+sim.Second, d1)
		wantRule(t, finalizeClean(a), RuleLateDetection)
	})
}

func TestTestPhaseCompleteness(t *testing.T) {
	t.Run("failed test without detection", func(t *testing.T) {
		a := newTestAuditor(t, func(c *Config) { c.Deviants = []trace.NodeID{3}; c.Deviation = protocol.Dropper })
		a.Tested(3, false, sim.Minute)
		rep := finalizeClean(a)
		wantRule(t, rep, RuleUndetectedFailure)
		if rep.TestsRun != 1 || rep.TestsFailed != 1 {
			t.Fatalf("tests = %d/%d, want 1/1", rep.TestsRun, rep.TestsFailed)
		}
	})
	t.Run("detection settles the failure", func(t *testing.T) {
		a := newTestAuditor(t, func(c *Config) { c.Deviants = []trace.NodeID{3}; c.Deviation = protocol.Dropper })
		a.Generated(h(1), message.MakeID(1, 1), 1, 2, 0)
		a.Tested(3, false, d1+sim.Minute)
		a.Detected(3, wire.ReasonDropped, h(1), d1+sim.Minute, d1)
		wantClean(t, finalizeClean(a))
	})
	t.Run("passed tests are never pending", func(t *testing.T) {
		a := newTestAuditor(t, nil)
		a.Tested(3, true, sim.Minute)
		wantClean(t, finalizeClean(a))
	})
}

func porFor(t *testing.T, sys g2gcrypto.System, hash g2gcrypto.Digest, from, to trace.NodeID, at sim.Time) wire.Signed {
	t.Helper()
	id, err := sys.Identity(to)
	if err != nil {
		t.Fatal(err)
	}
	return new(wire.Scratch).Sign(id, at, wire.ProofOfRelay{Hash: hash, From: from, To: to})
}

func TestPoRChain(t *testing.T) {
	t.Run("proven handoff reconciles", func(t *testing.T) {
		a := newTestAuditor(t, func(c *Config) { c.G2G = true })
		a.Generated(h(1), message.MakeID(1, 1), 1, 2, 0)
		a.Replicated(h(1), 1, 3, sim.Minute)
		a.RelayProven(porFor(t, a.cfg.Sys, h(1), 1, 3, sim.Minute), sim.Minute)
		wantClean(t, finalizeClean(a))
	})
	t.Run("handoff without proof", func(t *testing.T) {
		a := newTestAuditor(t, func(c *Config) { c.G2G = true })
		a.Generated(h(1), message.MakeID(1, 1), 1, 2, 0)
		a.Replicated(h(1), 1, 3, sim.Minute)
		wantRule(t, finalizeClean(a), RuleMissingPoR)
	})
	t.Run("proof without handoff", func(t *testing.T) {
		a := newTestAuditor(t, func(c *Config) { c.G2G = true })
		a.Generated(h(1), message.MakeID(1, 1), 1, 2, 0)
		a.RelayProven(porFor(t, a.cfg.Sys, h(1), 1, 3, sim.Minute), sim.Minute)
		wantRule(t, finalizeClean(a), RuleUnmatchedPoR)
	})
	t.Run("proof signed by the wrong node", func(t *testing.T) {
		a := newTestAuditor(t, func(c *Config) { c.G2G = true })
		a.Generated(h(1), message.MakeID(1, 1), 1, 2, 0)
		a.Replicated(h(1), 1, 3, sim.Minute)
		id, err := a.cfg.Sys.Identity(4) // 4 signs a PoR naming custodian 3
		if err != nil {
			t.Fatal(err)
		}
		por := new(wire.Scratch).Sign(id, sim.Minute, wire.ProofOfRelay{Hash: h(1), From: 1, To: 3})
		a.RelayProven(por, sim.Minute)
		wantRule(t, finalizeClean(a), RuleBadPoR)
	})
	t.Run("tampered proof", func(t *testing.T) {
		a := newTestAuditor(t, func(c *Config) { c.G2G = true })
		a.Generated(h(1), message.MakeID(1, 1), 1, 2, 0)
		a.Replicated(h(1), 1, 3, sim.Minute)
		por := porFor(t, a.cfg.Sys, h(1), 1, 3, sim.Minute)
		por.At++ // breaks the envelope signature
		a.RelayProven(por, sim.Minute)
		wantRule(t, finalizeClean(a), RuleBadPoR)
	})
}

func pomFor(t *testing.T, sys g2gcrypto.System, accused, reporter trace.NodeID, hash g2gcrypto.Digest, at sim.Time) wire.Signed {
	t.Helper()
	accusedID, err := sys.Identity(accused)
	if err != nil {
		t.Fatal(err)
	}
	evidence := new(wire.Scratch).Sign(accusedID, at, wire.ProofOfRelay{Hash: hash, From: reporter, To: accused})
	reporterID, err := sys.Identity(reporter)
	if err != nil {
		t.Fatal(err)
	}
	return new(wire.Scratch).Sign(reporterID, at, wire.Misbehavior{
		Accused: accused, Reason: wire.ReasonDropped, Evidence: []wire.Signed{evidence},
	})
}

func TestPoMValidation(t *testing.T) {
	deviant := func(c *Config) { c.Deviants = []trace.NodeID{3}; c.Deviation = protocol.Dropper; c.G2G = true }
	t.Run("valid PoM backing its detection", func(t *testing.T) {
		a := newTestAuditor(t, deviant)
		a.Generated(h(1), message.MakeID(1, 1), 1, 2, 0)
		at := d1 + sim.Minute
		a.Detected(3, wire.ReasonDropped, h(1), at, d1)
		a.MisbehaviorReported(pomFor(t, a.cfg.Sys, 3, 1, h(1), at), at)
		wantClean(t, finalizeClean(a))
	})
	t.Run("PoM with framed evidence", func(t *testing.T) {
		a := newTestAuditor(t, deviant)
		a.Generated(h(1), message.MakeID(1, 1), 1, 2, 0)
		at := d1 + sim.Minute
		a.Detected(3, wire.ReasonDropped, h(1), at, d1)
		// Evidence signed by the reporter, not the accused: framing.
		a.MisbehaviorReported(pomFor(t, a.cfg.Sys, 1, 3, h(1), at), at)
		wantRule(t, finalizeClean(a), RuleBadPoM)
	})
	t.Run("PoM without a matching detection", func(t *testing.T) {
		a := newTestAuditor(t, deviant)
		a.Generated(h(1), message.MakeID(1, 1), 1, 2, 0)
		a.MisbehaviorReported(pomFor(t, a.cfg.Sys, 3, 1, h(1), sim.Minute), sim.Minute)
		wantRule(t, finalizeClean(a), RuleBadPoM)
	})
	t.Run("detection without a PoM broadcast", func(t *testing.T) {
		a := newTestAuditor(t, deviant)
		a.Generated(h(1), message.MakeID(1, 1), 1, 2, 0)
		a.Detected(3, wire.ReasonDropped, h(1), d1+sim.Minute, d1)
		rep := finalizeClean(a)
		wantRule(t, rep, RuleMissingPoM)
		wantRule(t, rep, RuleAccountingMismatch)
	})
}

// TestMissingPoM: every detection of a G2G run must be followed by the PoM
// broadcast backing it; one that is not is reported as missing-pom, naming
// the accused and the message.
func TestMissingPoM(t *testing.T) {
	deviant := func(c *Config) { c.Deviants = []trace.NodeID{3, 5}; c.Deviation = protocol.Dropper; c.G2G = true }
	missing := func(rep *Report) []Violation {
		var out []Violation
		for _, v := range rep.Violations {
			if v.Rule == RuleMissingPoM {
				out = append(out, v)
			}
		}
		return out
	}
	t.Run("detection without its PoM", func(t *testing.T) {
		a := newTestAuditor(t, deviant)
		a.Generated(h(1), message.MakeID(1, 1), 1, 2, 0)
		at := d1 + sim.Minute
		a.Detected(3, wire.ReasonDropped, h(1), at, d1)
		got := missing(finalizeClean(a))
		if len(got) != 1 {
			t.Fatalf("missing-pom violations = %v, want one", got)
		}
		v := got[0]
		if v.MsgID != uint64(message.MakeID(1, 1)) || v.At != at || !strings.Contains(v.Detail, "detection of 3 ") {
			t.Errorf("violation does not name the accused and message: %+v", v)
		}
	})
	t.Run("only the unbacked detection", func(t *testing.T) {
		a := newTestAuditor(t, deviant)
		a.Generated(h(1), message.MakeID(1, 1), 1, 2, 0)
		a.Generated(h(2), message.MakeID(4, 1), 4, 6, 0)
		at := d1 + sim.Minute
		a.Detected(5, wire.ReasonDropped, h(2), at, d1)
		a.Detected(3, wire.ReasonDropped, h(1), at, d1)
		a.MisbehaviorReported(pomFor(t, a.cfg.Sys, 3, 1, h(1), at), at)
		got := missing(finalizeClean(a))
		if len(got) != 1 || got[0].MsgID != uint64(message.MakeID(4, 1)) || !strings.Contains(got[0].Detail, "detection of 5 ") {
			t.Fatalf("missing-pom violations = %+v, want one naming node 5 and message %d", got, message.MakeID(4, 1))
		}
	})
	t.Run("vanilla runs broadcast no PoM", func(t *testing.T) {
		a := newTestAuditor(t, func(c *Config) { c.Deviants = []trace.NodeID{3}; c.Deviation = protocol.Dropper })
		a.Generated(h(1), message.MakeID(1, 1), 1, 2, 0)
		a.Detected(3, wire.ReasonDropped, h(1), d1+sim.Minute, d1)
		if got := missing(finalizeClean(a)); len(got) != 0 {
			t.Fatalf("missing-pom raised outside G2G: %v", got)
		}
	})
}

func TestBlacklistReconciliation(t *testing.T) {
	run := func(t *testing.T, blacklisted func(holder, accused trace.NodeID) bool) *Report {
		t.Helper()
		a := newTestAuditor(t, func(c *Config) {
			c.Deviants = []trace.NodeID{3}
			c.Deviation = protocol.Dropper
			c.Population = 4
		})
		a.Generated(h(1), message.MakeID(1, 1), 1, 2, 0)
		a.Detected(3, wire.ReasonDropped, h(1), d1+sim.Minute, d1)
		return a.Finalize(Finalization{
			SummaryGenerated: 1, Blacklisted: blacklisted, EndedAt: 2 * d1,
		})
	}
	t.Run("everyone blacklists the detected deviant", func(t *testing.T) {
		wantClean(t, run(t, func(holder, accused trace.NodeID) bool { return true }))
	})
	t.Run("a holdout is a violation", func(t *testing.T) {
		rep := run(t, func(holder, accused trace.NodeID) bool { return holder != 2 })
		wantRule(t, rep, RuleMissingBlacklist)
	})
}

func TestAccountingReconciliation(t *testing.T) {
	a := newTestAuditor(t, nil)
	a.Generated(h(1), message.MakeID(1, 1), 1, 2, 0)
	rep := a.Finalize(Finalization{SummaryGenerated: 2}) // engine claims one more
	wantRule(t, rep, RuleAccountingMismatch)
}

func TestDigestDeterminismAndSensitivity(t *testing.T) {
	type rep struct {
		to trace.NodeID
		at sim.Time
	}
	feed := func(order ...rep) string {
		a := newTestAuditor(t, nil)
		a.Generated(h(1), message.MakeID(1, 1), 1, 2, 0)
		for _, r := range order {
			a.Replicated(h(1), 1, r.to, r.at)
		}
		return finalizeClean(a).Digest
	}
	base := feed(rep{3, sim.Minute}, rep{4, 2 * sim.Minute})
	if base != feed(rep{3, sim.Minute}, rep{4, 2 * sim.Minute}) {
		t.Fatal("identical event streams produced different digests")
	}
	if base == feed(rep{4, sim.Minute}, rep{3, 2 * sim.Minute}) {
		t.Fatal("different event streams produced the same digest")
	}
	// Within one virtual instant the emission order is an iteration-order
	// artifact; the canonical digest must not see it.
	if feed(rep{3, sim.Minute}, rep{4, sim.Minute}) != feed(rep{4, sim.Minute}, rep{3, sim.Minute}) {
		t.Fatal("within-instant reordering changed the digest")
	}
}

func TestViolationContext(t *testing.T) {
	a := newTestAuditor(t, func(c *Config) { c.Label = "unit/run" })
	id := message.MakeID(1, 7)
	a.Generated(h(1), id, 1, 2, 0)
	a.Replicated(h(1), 1, 3, sim.Minute)
	a.Replicated(h(1), 1, 3, 2*sim.Minute) // duplicate handoff
	rep := finalizeClean(a)
	wantRule(t, rep, RuleDuplicateHandoff)
	v := rep.Violations[0]
	if v.Label != "unit/run" {
		t.Fatalf("label = %q", v.Label)
	}
	if v.MsgID != uint64(id) {
		t.Fatalf("msg id = %d, want %d", v.MsgID, uint64(id))
	}
	if v.Msg == "" {
		t.Fatal("violation lacks the message digest")
	}
	if len(v.Timeline) < 2 || !strings.Contains(v.Timeline[0], "generate") {
		t.Fatalf("timeline excerpt = %v", v.Timeline)
	}
	if !strings.Contains(v.String(), "unit/run") || !strings.Contains(v.String(), RuleDuplicateHandoff) {
		t.Fatalf("String() = %q", v.String())
	}
	if err := rep.Err(); err == nil || !strings.Contains(err.Error(), RuleDuplicateHandoff) {
		t.Fatalf("Err() = %v", err)
	}
}

func TestViolationCap(t *testing.T) {
	a := newTestAuditor(t, nil)
	for i := 0; i < maxViolations+5; i++ {
		a.Delivered(h(byte(100+i)), sim.Minute) // orphan deliveries
	}
	rep := finalizeClean(a)
	if len(rep.Violations) != 100 {
		t.Fatalf("retained %d violations, want 100", len(rep.Violations))
	}
	if rep.TotalViolations != 105 {
		t.Fatalf("total = %d, want 105", rep.TotalViolations)
	}
	if rep.Ok() {
		t.Fatal("capped report must still fail")
	}
}

func TestReportStrings(t *testing.T) {
	var nilRep *Report
	if got := nilRep.String(); got != "audit: not run" {
		t.Fatalf("nil report String() = %q", got)
	}
	if nilRep.Ok() {
		t.Fatal("nil report must not be Ok")
	}
	a := newTestAuditor(t, nil)
	rep := finalizeClean(a)
	if !strings.HasPrefix(rep.String(), "audit: ok") {
		t.Fatalf("clean String() = %q", rep.String())
	}
}
