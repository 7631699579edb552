package runner

import (
	"errors"
	"strings"
	"testing"

	"give2get/internal/engine"
	"give2get/internal/invariant"
)

// auditedSpecs builds one audited spec per derived seed.
func auditedSpecs(t testing.TB, n int) []Spec {
	t.Helper()
	tr := testTrace(t)
	specs := make([]Spec, n)
	for r := 0; r < n; r++ {
		cfg := baseConfig(tr, DeriveSeed(1, r))
		cfg.Audit = &invariant.Options{Label: labelFor(r)}
		specs[r] = Spec{Label: labelFor(r), Config: cfg}
	}
	return specs
}

func labelFor(r int) string {
	return "audit-" + string(rune('a'+r))
}

// TestAuditDigestsStableAcrossJobs is the scheduler half of the canonical
// digest claim: the per-run event-stream digests (and the full audit
// reports) are byte-identical whether the batch runs sequentially or on
// four workers. `go test -race ./internal/runner` (see `make race`) makes
// this double as the audited engine's concurrent-use race check.
func TestAuditDigestsStableAcrossJobs(t *testing.T) {
	const runs = 6
	seq, err := Run(auditedSpecs(t, runs), Options{Jobs: 1, StrictAudit: true})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(auditedSpecs(t, runs), Options{Jobs: 4, StrictAudit: true})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < runs; r++ {
		a, b := seq[r].Result.Audit, par[r].Result.Audit
		if a == nil || b == nil {
			t.Fatalf("run %d missing audit report", r)
		}
		if a.Digest != b.Digest {
			t.Errorf("run %d digests differ across job counts: %s vs %s", r, a.Digest, b.Digest)
		}
		if a.Events != b.Events || a.Generated != b.Generated || a.Delivered != b.Delivered {
			t.Errorf("run %d audit counts differ: %+v vs %+v", r, a, b)
		}
		if !a.Ok() || !b.Ok() {
			t.Errorf("run %d audit not clean: %v / %v", r, a.Violations, b.Violations)
		}
	}
	// Distinct seeds must not collapse onto one digest.
	if seq[0].Result.Audit.Digest == seq[1].Result.Audit.Digest {
		t.Error("different seeds produced identical digests (suspicious)")
	}
}

// TestAssumeHonestFailsStrictAudit drives a real run through a failing
// StrictAudit: a genuine dropper run audited under AssumeHonest. The engine
// detects the droppers as designed, and the auditor — told the run has no
// deviants — flags every detection as an honest-run violation. That is the
// supported way to make a real run fail StrictAudit (a faithful audit of a
// faithful engine cannot fail, see TestPromoteAudit).
func TestAssumeHonestFailsStrictAudit(t *testing.T) {
	cfg := baseConfig(testTrace(t), DeriveSeed(1, 0))
	cfg.Audit = &invariant.Options{Label: "assume-honest", AssumeHonest: true}
	out, err := Run([]Spec{{Label: "assume-honest", Config: cfg}}, Options{
		Jobs:        1,
		StrictAudit: true,
	})
	if err == nil {
		t.Fatal("AssumeHonest audit of a deviant run did not fail StrictAudit")
	}
	if !strings.Contains(err.Error(), invariant.RuleUnexpectedDetection) {
		t.Errorf("error does not carry the violated rule: %v", err)
	}
	res := out[0].Result
	if res == nil || res.Audit == nil || res.Audit.Ok() {
		t.Fatalf("expected a failing audit report, got %+v", out[0])
	}
}

// TestPromoteAudit pins the StrictAudit semantics. A genuine engine run
// cannot fail its own audit (that is the auditor's core claim, tested in
// the engine package), so the failing report is built by hand here.
func TestPromoteAudit(t *testing.T) {
	failed := &engine.Result{Audit: &invariant.Report{
		TotalViolations: 1,
		Violations:      []invariant.Violation{{Rule: invariant.RuleSelfRelay, Detail: "synthetic"}},
	}}
	clean := &engine.Result{Audit: &invariant.Report{}}
	unaudited := &engine.Result{}
	sentinel := errors.New("engine failed first")

	if err := promoteAudit(nil, true, failed); err == nil || !strings.Contains(err.Error(), invariant.RuleSelfRelay) {
		t.Fatalf("failing audit not promoted: %v", err)
	}
	if err := promoteAudit(nil, false, failed); err != nil {
		t.Fatalf("promotion without StrictAudit: %v", err)
	}
	if err := promoteAudit(nil, true, clean); err != nil {
		t.Fatalf("clean audit promoted: %v", err)
	}
	if err := promoteAudit(nil, true, unaudited); err != nil {
		t.Fatalf("unaudited run promoted: %v", err)
	}
	if err := promoteAudit(sentinel, true, failed); err != sentinel {
		t.Fatalf("run error not preserved: %v", err)
	}
	if err := promoteAudit(nil, true, nil); err != nil {
		t.Fatalf("nil result promoted: %v", err)
	}
}
