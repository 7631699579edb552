package runner

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/base64"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"

	"give2get/internal/engine"
	"give2get/internal/invariant"
	"give2get/internal/metrics"
	"give2get/internal/obs"
	"give2get/internal/protocol"
	"give2get/internal/sim"
)

// The sweep journal makes a batch crash-safe: one JSON line per completed
// run, appended and synced as runs finish, headed by a line that pins the
// spec list it belongs to. A resumed batch replays the journal, restores the
// recorded outcomes without re-running them, and dispatches only the specs
// that never completed — restarting any in-flight run from its engine
// checkpoint when one survived. A process killed mid-append leaves at worst
// one torn trailing line, which the loader discards; every earlier entry is
// intact by construction (append-only, line-framed).

// ErrJournalMismatch marks a journal written for a different spec list.
var ErrJournalMismatch = errors.New("runner: journal does not match the spec list")

// journalHeader is the first line of a journal.
type journalHeader struct {
	Version int    `json:"version"`
	Specs   int    `json:"specs"`
	Labels  string `json:"labels"`
}

// journalEntry is one completed run.
type journalEntry struct {
	Index    int    `json:"index"`
	Label    string `json:"label"`
	Digest   string `json:"digest,omitempty"`
	Snapshot string `json:"snapshot"`
}

const journalVersion = 1

// resultSnapshot is the serializable core of an engine.Result: everything
// experiment rendering consumes. Wall-clock telemetry is process-local and
// deliberately not journaled.
type resultSnapshot struct {
	Summary   metrics.Summary
	Detection metrics.DetectionSummary
	Collector metrics.CollectorState
	Usage     []protocol.Usage
	EndedAt   sim.Time
	Audit     *invariant.Report
}

func snapshotResult(res *engine.Result) (string, error) {
	snap := resultSnapshot{
		Summary:   res.Summary,
		Detection: res.Detection,
		Usage:     res.Usage,
		EndedAt:   res.EndedAt,
		Audit:     res.Audit,
	}
	if res.Collector != nil {
		snap.Collector = res.Collector.State()
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&snap); err != nil {
		return "", err
	}
	return base64.StdEncoding.EncodeToString(buf.Bytes()), nil
}

func restoreResult(encoded string) (*engine.Result, error) {
	raw, err := base64.StdEncoding.DecodeString(encoded)
	if err != nil {
		return nil, err
	}
	var snap resultSnapshot
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&snap); err != nil {
		return nil, err
	}
	collector := metrics.NewCollector()
	collector.Restore(snap.Collector)
	return &engine.Result{
		Summary:   snap.Summary,
		Detection: snap.Detection,
		Collector: collector,
		Usage:     snap.Usage,
		EndedAt:   snap.EndedAt,
		Audit:     snap.Audit,
		// Journal-restored runs carry no wall-clock telemetry; the snapshot
		// keeps the always-non-nil contract.
		Telemetry: obs.NewMetrics().Snapshot(),
	}, nil
}

// labelsHash pins the journal to its spec list: same count, same labels,
// same order.
func labelsHash(specs []Spec) string {
	h := sha256.New()
	for _, s := range specs {
		h.Write([]byte(s.Label))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// journal is the append side; writes are serialized and synced per entry so
// a completed run survives any later crash.
type journal struct {
	mu sync.Mutex
	f  *os.File
}

// openJournal prepares the journal for a batch. With resume set, an existing
// file is validated against the specs and its completed outcomes are
// returned (indexed by spec); otherwise the file is truncated and a fresh
// header written.
func openJournal(path string, specs []Spec, resume bool) (*journal, map[int]Outcome, error) {
	restored := map[int]Outcome{}
	if resume {
		data, err := os.ReadFile(path)
		switch {
		case errors.Is(err, os.ErrNotExist):
			// Nothing to resume: fall through to a fresh journal.
		case err != nil:
			return nil, nil, err
		default:
			restored, err = replayJournal(data, specs)
			if err != nil {
				return nil, nil, err
			}
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return nil, nil, err
			}
			return &journal{f: f}, restored, nil
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, nil, err
	}
	hdr, err := json.Marshal(journalHeader{Version: journalVersion, Specs: len(specs), Labels: labelsHash(specs)})
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if _, err := f.Write(append(hdr, '\n')); err != nil {
		f.Close()
		return nil, nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, nil, err
	}
	return &journal{f: f}, restored, nil
}

// replayJournal parses a journal against the current specs and returns the
// outcomes it proves complete. A torn trailing line (crash mid-append) is
// discarded; an entry whose snapshot no longer decodes is skipped, so the
// run re-executes instead of failing the resume.
func replayJournal(data []byte, specs []Spec) (map[int]Outcome, error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, 64<<20) // snapshots are long lines
	if !sc.Scan() {
		return nil, fmt.Errorf("%w: empty journal", ErrJournalMismatch)
	}
	var hdr journalHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return nil, fmt.Errorf("%w: unreadable header: %v", ErrJournalMismatch, err)
	}
	if hdr.Version != journalVersion {
		return nil, fmt.Errorf("%w: journal version %d (want %d)", ErrJournalMismatch, hdr.Version, journalVersion)
	}
	if hdr.Specs != len(specs) || hdr.Labels != labelsHash(specs) {
		return nil, fmt.Errorf("%w: journal covers %d specs with a different label set", ErrJournalMismatch, hdr.Specs)
	}
	restored := map[int]Outcome{}
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var e journalEntry
		if err := json.Unmarshal(line, &e); err != nil {
			// Torn tail from a crash mid-append: everything after it is
			// unwritten, so stop here.
			break
		}
		if e.Index < 0 || e.Index >= len(specs) {
			return nil, fmt.Errorf("%w: entry index %d outside %d specs", ErrJournalMismatch, e.Index, len(specs))
		}
		if e.Label != specs[e.Index].Label {
			return nil, fmt.Errorf("%w: entry %d is %q, spec is %q", ErrJournalMismatch, e.Index, e.Label, specs[e.Index].Label)
		}
		res, err := restoreResult(e.Snapshot)
		if err != nil {
			continue // unusable snapshot: re-run this spec
		}
		if e.Digest != "" && (res.Audit == nil || res.Audit.Digest != e.Digest) {
			continue // digest disagrees with the snapshot: re-run
		}
		restored[e.Index] = Outcome{Label: e.Label, Result: res, Restored: true}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return restored, nil
}

// record appends one completed run, synced before returning.
func (j *journal) record(index int, label string, res *engine.Result) error {
	snap, err := snapshotResult(res)
	if err != nil {
		return err
	}
	e := journalEntry{Index: index, Label: label, Snapshot: snap}
	if res.Audit != nil {
		e.Digest = res.Audit.Digest
	}
	line, err := json.Marshal(e)
	if err != nil {
		return err
	}
	if strings.ContainsRune(string(line), '\n') {
		return errors.New("runner: journal entry not line-framed")
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(append(line, '\n')); err != nil {
		return err
	}
	return j.f.Sync()
}

func (j *journal) close() error {
	if j == nil {
		return nil
	}
	return j.f.Close()
}
