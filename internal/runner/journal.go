package runner

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"

	"give2get/internal/engine"
	"give2get/internal/invariant"
	"give2get/internal/metrics"
	"give2get/internal/obs"
	"give2get/internal/protocol"
	"give2get/internal/sim"
	"give2get/internal/trace"
)

// The sweep journal makes a batch crash-safe: one JSON line per completed
// run, appended and synced as runs finish, in the file journalName of the
// batch's CheckpointDir. Each entry is pinned to its spec by index, label and
// the engine's configuration fingerprint, which covers the trace's contacts.
// A resumed batch replays the journal, restores each spec whose entry
// matches it on all three without re-running it, and runs every other spec
// from its beginning: runs are short, so a run cut off mid-way costs at most
// one run's time. An entry written for another spec list, configuration or
// trace matches nothing, so its spec re-runs. Every entry is written with a
// leading newline, so a torn line (a crash or a failed write mid-append)
// never runs into the next entry; the loader skips torn lines.

// journalName is the sweep journal's file name inside Options.CheckpointDir.
const journalName = "sweep.journal"

// journalEntry is one completed run.
type journalEntry struct {
	Index       int    `json:"index"`
	Label       string `json:"label"`
	Fingerprint string `json:"fingerprint"`
	Digest      string `json:"digest,omitempty"`
	Snapshot    string `json:"snapshot"`
}

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

// fingerprints returns each spec's engine configuration fingerprint in its
// journal form, reading each distinct trace once.
func fingerprints(specs []Spec) ([]string, error) {
	traces := make(map[trace.Source][32]byte)
	out := make([]string, len(specs))
	for i, s := range specs {
		sum, err := engine.ConfigFingerprint(s.Config, traces)
		if err != nil {
			return nil, fmt.Errorf("runner: run %q: %w", s.Label, err)
		}
		out[i] = hex.EncodeToString(sum[:])
	}
	return out, nil
}

// journal is the append side; writes are serialized and synced per entry so
// a completed run survives any later crash.
type journal struct {
	mu sync.Mutex
	f  *os.File
	// fingerprints pins each spec's entries (see fingerprints).
	fingerprints []string
}

// openJournal prepares the journal for a batch. With resume set, an existing
// file is replayed against the specs and the outcomes it proves complete are
// returned (indexed by spec), and new entries append to it; otherwise the
// file starts empty.
func openJournal(path string, specs []Spec, resume bool) (*journal, map[int]Outcome, error) {
	fps, err := fingerprints(specs)
	if err != nil {
		return nil, nil, err
	}
	var restored map[int]Outcome
	flags := os.O_WRONLY | os.O_CREATE | os.O_TRUNC
	if resume {
		data, err := os.ReadFile(path)
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, nil, err
		}
		if restored, err = replayJournal(data, specs, fps); err != nil {
			return nil, nil, err
		}
		flags = os.O_WRONLY | os.O_CREATE | os.O_APPEND
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, nil, err
	}
	return &journal{f: f, fingerprints: fps}, restored, nil
}

// replayJournal parses a journal against the current specs, whose
// fingerprints are fps, and returns the outcomes it proves complete. A line
// that does not parse (torn by a crash or a failed write) is skipped, and so
// is an entry whose index, label or fingerprint does not match its spec,
// whose snapshot no longer decodes, or whose digest disagrees with the
// snapshot: those specs re-run.
func replayJournal(data []byte, specs []Spec, fps []string) (map[int]Outcome, error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, 64<<20) // snapshots are long lines
	restored := map[int]Outcome{}
	for sc.Scan() {
		var e journalEntry
		if json.Unmarshal(sc.Bytes(), &e) != nil {
			continue
		}
		if e.Index < 0 || e.Index >= len(specs) || e.Label != specs[e.Index].Label ||
			e.Fingerprint != fps[e.Index] {
			continue
		}
		res, err := restoreResult(e.Snapshot)
		if err != nil {
			continue
		}
		if e.Digest != "" && (res.Audit == nil || res.Audit.Digest != e.Digest) {
			continue
		}
		restored[e.Index] = Outcome{Label: e.Label, Result: res, Restored: true}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return restored, nil
}

// record appends one completed run, synced before returning.
func (j *journal) record(index int, spec Spec, res *engine.Result) error {
	snap, err := snapshotResult(res)
	if err != nil {
		return err
	}
	e := journalEntry{Index: index, Label: spec.Label, Fingerprint: j.fingerprints[index], Snapshot: snap}
	if res.Audit != nil {
		e.Digest = res.Audit.Digest
	}
	line, err := json.Marshal(e)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(append(append([]byte{'\n'}, line...), '\n')); err != nil {
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
