package runner

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"

	"give2get/internal/engine"
	"give2get/internal/obs"
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

// journalEntry is one completed run. Result is the run's result as plain
// JSON, without its wall-clock telemetry (engine.Result leaves it out), so an
// entry grows with the population and the deliveries, not with the messages.
// A line without a result, such as one written in another format, restores
// nothing and its spec re-runs.
type journalEntry struct {
	Index       int            `json:"index"`
	Label       string         `json:"label"`
	Fingerprint string         `json:"fingerprint"`
	Result      *engine.Result `json:"result"`
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
// is an entry without a result or whose index, label or fingerprint does not
// match its spec: those specs re-run.
func replayJournal(data []byte, specs []Spec, fps []string) (map[int]Outcome, error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, 64<<20) // an entry grows with the population
	restored := map[int]Outcome{}
	for sc.Scan() {
		var e journalEntry
		if json.Unmarshal(sc.Bytes(), &e) != nil || e.Result == nil {
			continue
		}
		if e.Index < 0 || e.Index >= len(specs) || e.Label != specs[e.Index].Label ||
			e.Fingerprint != fps[e.Index] {
			continue
		}
		// Journal-restored runs carry no wall-clock telemetry; the snapshot
		// keeps the always-non-nil contract.
		e.Result.Telemetry = obs.NewMetrics().Snapshot()
		restored[e.Index] = Outcome{Label: e.Label, Result: e.Result, Restored: true}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return restored, nil
}

// record appends one completed run, synced before returning.
func (j *journal) record(index int, spec Spec, res *engine.Result) error {
	line, err := json.Marshal(journalEntry{Index: index, Label: spec.Label, Fingerprint: j.fingerprints[index], Result: res})
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
