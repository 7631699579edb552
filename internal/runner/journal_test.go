package runner

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"give2get/internal/engine"
	"give2get/internal/invariant"
	"give2get/internal/metrics"
	"give2get/internal/protocol"
	"give2get/internal/sim"
	"give2get/internal/trace"
)

// journalSpecs builds n audited specs over one shared trace, so every
// outcome carries a digest the resume tests can compare byte for byte.
func journalSpecs(tr *trace.Trace, n int) []Spec {
	specs := make([]Spec, n)
	for i := range specs {
		cfg := baseConfig(tr, DeriveSeed(5, i))
		cfg.Audit = &invariant.Options{Label: fmt.Sprintf("journal-%d", i)}
		specs[i] = Spec{Label: fmt.Sprintf("j%d", i), Config: cfg}
	}
	return specs
}

func mustDigests(t *testing.T, out []Outcome) []string {
	t.Helper()
	digests := make([]string, len(out))
	for i, o := range out {
		if o.Err != nil || o.Result == nil || o.Result.Audit == nil {
			t.Fatalf("outcome %d unusable: %+v", i, o)
		}
		digests[i] = o.Result.Audit.Digest
	}
	return digests
}

// countingSource counts the passes opened over a trace: a run opens one,
// and so does fingerprinting a journaled batch, once per distinct trace.
type countingSource struct {
	trace.Source
	passes atomic.Int32
}

func (c *countingSource) Cursor() (trace.Cursor, error) {
	c.passes.Add(1)
	return c.Source.Cursor()
}

// withContacts is tr with its contacts replaced.
func withContacts(t *testing.T, tr *trace.Trace, contacts []trace.Contact) *trace.Trace {
	t.Helper()
	out, err := trace.New(tr.Name(), tr.Nodes(), contacts)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// fresh runs specs without a checkpoint directory and returns their digests.
func fresh(t *testing.T, specs []Spec) []string {
	t.Helper()
	out, err := Run(specs, Options{Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	return mustDigests(t, out)
}

// TestJournalResumeSkipsCompleted completes a journaled sweep, then resumes
// it under the same configurations over a trace that counts its passes:
// every outcome must come back restored from the journal, never re-run, with
// every field of the recorded result but the wall-clock telemetry intact.
// The resume reads the shared trace once, to fingerprint it, and no run
// reads it; a batch without a checkpoint directory never fingerprints.
func TestJournalResumeSkipsCompleted(t *testing.T) {
	tr := testTrace(t)
	dir := t.TempDir()

	counted := &countingSource{Source: tr}
	specs := journalSpecs(tr, 3)
	for i := range specs {
		specs[i].Config.Trace = counted
	}
	if _, err := Run(specs[:1], Options{Jobs: 1}); err != nil {
		t.Fatal(err)
	}
	if got := counted.passes.Load(); got != 1 {
		t.Fatalf("an unjournaled run opened %d passes over its trace, want 1", got)
	}
	counted.passes.Store(0)
	first, err := Run(specs, Options{Jobs: 2, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	want := mustDigests(t, first)
	if got := counted.passes.Load(); got != 1+3 {
		t.Fatalf("a journaled batch of 3 runs over one trace opened %d passes, want 4: one fingerprint, one per run", got)
	}

	counted.passes.Store(0)
	second, err := Run(specs, Options{Jobs: 2, CheckpointDir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := counted.passes.Load(); got != 1 {
		t.Errorf("the resume opened %d passes over the trace, want 1: the fingerprint's", got)
	}
	for i, o := range second {
		if !o.Restored {
			t.Errorf("outcome %d was re-run, not restored", i)
		}
		if o.Result.Audit.Digest != want[i] {
			t.Errorf("outcome %d digest %s, journaled %s", i, o.Result.Audit.Digest, want[i])
		}
		if o.Result.Telemetry == nil {
			t.Errorf("outcome %d: restored result lost the telemetry contract", i)
		}
		got, ran := *o.Result, *first[i].Result
		got.Telemetry, ran.Telemetry = nil, nil
		if !reflect.DeepEqual(got, ran) {
			t.Errorf("outcome %d: restored result\n%+v\nwant\n%+v", i, got, ran)
		}
		if len(ran.Detections) == 0 || len(ran.Sources) == 0 {
			t.Errorf("outcome %d: the run has no detections or sources to restore", i)
		}
	}
}

// TestJournalResumeRerunsChangedConfig resumes a journal under spec
// configurations that changed since it was written, labels kept: the
// unchanged spec restores, and every changed spec re-runs to the digest of a
// fresh run of its new configuration, never the journaled one.
func TestJournalResumeRerunsChangedConfig(t *testing.T) {
	tr := testTrace(t)
	dir := t.TempDir()
	if _, err := Run(journalSpecs(tr, 3), Options{Jobs: 2, CheckpointDir: dir}); err != nil {
		t.Fatal(err)
	}

	changed := journalSpecs(tr, 3)
	changed[1].Config.Protocol = protocol.Epidemic
	changed[2].Config.Seed += 100
	want := fresh(t, changed)
	out, err := Run(changed, Options{Jobs: 2, CheckpointDir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range out {
		if wantRestored := i == 0; o.Restored != wantRestored {
			t.Errorf("outcome %d: restored %v, want %v", i, o.Restored, wantRestored)
		}
	}
	for i, d := range mustDigests(t, out) {
		if d != want[i] {
			t.Errorf("outcome %d digest %s, fresh run of its config %s", i, d, want[i])
		}
	}
}

// TestJournalResumeRerunsOtherTrace resumes a journal over another trace of
// the same population (the journaled one with every node relabeled), and
// over the journaled trace with one contact ending a second later: the
// fingerprint covers every contact, so nothing restores and each run reaches
// the digest of a fresh run over its own trace.
func TestJournalResumeRerunsOtherTrace(t *testing.T) {
	tr := testTrace(t)
	relabeled := append([]trace.Contact(nil), tr.Contacts()...)
	for i, c := range relabeled {
		relabeled[i].A, relabeled[i].B = (c.A+1)%trace.NodeID(tr.Nodes()), (c.B+1)%trace.NodeID(tr.Nodes())
	}
	longer := append([]trace.Contact(nil), tr.Contacts()...)
	longer[len(longer)/2].End += sim.Second
	for name, resumed := range map[string]*trace.Trace{
		"other-trace":            withContacts(t, tr, relabeled),
		"one-contact-ends-later": withContacts(t, tr, longer),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if _, err := Run(journalSpecs(tr, 2), Options{Jobs: 2, CheckpointDir: dir}); err != nil {
				t.Fatal(err)
			}
			specs := journalSpecs(resumed, 2)
			want := fresh(t, specs)
			out, err := Run(specs, Options{Jobs: 2, CheckpointDir: dir, Resume: true})
			if err != nil {
				t.Fatal(err)
			}
			for i, o := range out {
				if o.Restored {
					t.Errorf("outcome %d restored from the journaled trace's entry", i)
				}
			}
			for i, d := range mustDigests(t, out) {
				if d != want[i] {
					t.Errorf("outcome %d digest %s, a fresh run over its trace %s", i, d, want[i])
				}
			}
		})
	}
}

// TestJournalTornTailReruns truncates the journal mid-entry — the on-disk
// state a crash during append leaves behind — and resumes: intact entries
// restore, the torn one re-runs, and the sweep still converges on the same
// digests. The re-run's entry, appended after the torn line, must restore on
// the next resume.
func TestJournalTornTailReruns(t *testing.T) {
	tr := testTrace(t)
	dir := t.TempDir()
	journal := filepath.Join(dir, journalName)
	specs := journalSpecs(tr, 2)

	first, err := Run(specs, Options{Jobs: 1, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	want := mustDigests(t, first)

	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	entries := strings.Fields(string(data))
	if len(entries) != 2 {
		t.Fatalf("journal has %d entries, want 2", len(entries))
	}
	// Keep the first entry; tear the second mid-line.
	torn := "\n" + entries[0] + "\n\n" + entries[1][:len(entries[1])/2]
	if err := os.WriteFile(journal, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}

	for pass, wantRestored := range [][]bool{{true, false}, {true, true}} {
		out, err := Run(specs, Options{Jobs: 1, CheckpointDir: dir, Resume: true})
		if err != nil {
			t.Fatal(err)
		}
		for i, o := range out {
			if o.Restored != wantRestored[i] {
				t.Errorf("resume %d, outcome %d: restored %v, want %v", pass, i, o.Restored, wantRestored[i])
			}
		}
		for i, d := range mustDigests(t, out) {
			if d != want[i] {
				t.Errorf("resume %d, outcome %d digest %s, want %s", pass, i, d, want[i])
			}
		}
	}
}

// TestJournalSnapshotFormatReruns resumes a journal whose entries are in the
// earlier format: the same index, label and fingerprint, with the result as a
// base64 gob "snapshot" in place of "result". Such a line decodes as JSON, so
// it must not restore a result missing its detections and sources: every
// spec re-runs to a fresh run's digest, and the next resume restores the
// entries the re-runs appended.
func TestJournalSnapshotFormatReruns(t *testing.T) {
	tr := testTrace(t)
	dir := t.TempDir()
	journal := filepath.Join(dir, journalName)
	specs := journalSpecs(tr, 2)
	want := fresh(t, specs)
	if _, err := Run(specs, Options{Jobs: 1, CheckpointDir: dir}); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	var old bytes.Buffer
	for _, line := range strings.Fields(string(data)) {
		var e journalEntry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatal(err)
		}
		var snap bytes.Buffer
		if err := gob.NewEncoder(&snap).Encode(struct {
			Summary   metrics.Summary
			Detection metrics.DetectionSummary
			Usage     []protocol.Usage
			Audit     *invariant.Report
		}{e.Result.Summary, e.Result.Detection, e.Result.Usage, e.Result.Audit}); err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(map[string]any{
			"index": e.Index, "label": e.Label, "fingerprint": e.Fingerprint,
			"digest": e.Result.Audit.Digest, "snapshot": base64.StdEncoding.EncodeToString(snap.Bytes()),
		})
		if err != nil {
			t.Fatal(err)
		}
		old.WriteString("\n" + string(b) + "\n")
	}
	if err := os.WriteFile(journal, old.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	for pass, wantRestored := range []bool{false, true} {
		out, err := Run(specs, Options{Jobs: 1, CheckpointDir: dir, Resume: true})
		if err != nil {
			t.Fatal(err)
		}
		for i, o := range out {
			if o.Restored != wantRestored {
				t.Errorf("resume %d, outcome %d: restored %v, want %v", pass, i, o.Restored, wantRestored)
			}
		}
		for i, d := range mustDigests(t, out) {
			if d != want[i] {
				t.Errorf("resume %d, outcome %d digest %s, want %s", pass, i, d, want[i])
			}
		}
	}
}

// TestJournalMismatchRejected resumes a journal written for another spec
// list: the same specs reordered, and relabeled. No entry matches a spec by
// index, label and fingerprint together, so nothing restores, and the batch
// still reaches the digests of a fresh run.
func TestJournalMismatchRejected(t *testing.T) {
	tr := testTrace(t)
	written := journalSpecs(tr, 2)
	reordered := []Spec{written[1], written[0]}
	relabeled := journalSpecs(tr, 2)
	for i := range relabeled {
		relabeled[i].Label += "-renamed"
	}
	for name, specs := range map[string][]Spec{"reordered": reordered, "relabeled": relabeled} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if _, err := Run(written, Options{Jobs: 1, CheckpointDir: dir}); err != nil {
				t.Fatal(err)
			}
			want := fresh(t, specs)
			out, err := Run(specs, Options{Jobs: 1, CheckpointDir: dir, Resume: true})
			if err != nil {
				t.Fatal(err)
			}
			for i, o := range out {
				if o.Restored {
					t.Errorf("outcome %d restored from another spec's entry", i)
				}
			}
			for i, d := range mustDigests(t, out) {
				if d != want[i] {
					t.Errorf("outcome %d digest %s, want %s", i, d, want[i])
				}
			}
		})
	}
}

// TestJournalWriteFailureFailsRun points the journal at a device that
// refuses every write: a run whose completion cannot be journaled is
// reported failed, not completed, and a later resume with a writable journal
// re-runs it to the same audit digest.
func TestJournalWriteFailureFailsRun(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full:", err)
	}
	tr := testTrace(t)
	specs := journalSpecs(tr, 1)
	want := fresh(t, specs)

	dir := t.TempDir()
	journal := filepath.Join(dir, journalName)
	if err := os.Symlink("/dev/full", journal); err != nil {
		t.Fatal(err)
	}
	opts := Options{Jobs: 1, CheckpointDir: dir}
	out, err := Run(specs, opts)
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("batch error %v, want ENOSPC from the journal", err)
	}
	if o := out[0]; o.Err == nil || !strings.Contains(o.Err.Error(), "journal") || o.Restored {
		t.Fatalf("unjournaled run reported as %+v, want a journal failure", o)
	}

	if err := os.Remove(journal); err != nil {
		t.Fatal(err)
	}
	opts.Resume = true
	out, err = Run(specs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Restored {
		t.Error("a run the journal never recorded was restored")
	}
	if got := mustDigests(t, out); got[0] != want[0] {
		t.Errorf("re-run digest %s, want %s", got[0], want[0])
	}
}

// TestCancelledSweepResumesIdentical is the crash-safe sweep oracle: a
// journaled sweep is cancelled somewhere mid-flight, resumed, and every final
// outcome — restored or run again from its beginning — must match the
// uninterrupted reference digests exactly. The checkpoint directory never
// holds anything but the journal.
func TestCancelledSweepResumesIdentical(t *testing.T) {
	tr := testTrace(t)
	ref, err := Run(journalSpecs(tr, 4), Options{Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := mustDigests(t, ref)

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		// Land the cancellation somewhere inside the sweep; wherever it
		// falls — mid-run, between runs, or after the end — the resumed
		// sweep below must converge to the reference.
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	interrupted, err := Run(journalSpecs(tr, 4), Options{
		Jobs:          2,
		CheckpointDir: dir,
		Context:       ctx,
	})
	if err != nil {
		var be *BatchError
		if !errors.As(err, &be) {
			t.Fatalf("cancelled sweep returned a non-batch error: %v", err)
		}
		for i, o := range interrupted {
			if o.Err != nil && !errors.Is(o.Err, engine.ErrInterrupted) {
				t.Fatalf("outcome %d failed with a non-interruption: %v", i, o.Err)
			}
		}
	}
	onlyJournal(t, dir)

	out, err := Run(journalSpecs(tr, 4), Options{
		Jobs:          2,
		CheckpointDir: dir,
		Resume:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range mustDigests(t, out) {
		if d != want[i] {
			t.Errorf("outcome %d digest %s, want %s", i, d, want[i])
		}
	}
	onlyJournal(t, dir)
}

// onlyJournal asserts that a checkpoint directory holds the sweep journal
// and nothing else.
func onlyJournal(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != journalName {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Errorf("checkpoint directory holds %v, want only %s", names, journalName)
	}
}
