package engine

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"give2get/internal/protocol"
	"give2get/internal/sim"
	"give2get/internal/trace"
)

// mustInterrupt runs cfg expecting a graceful interruption that leaves a
// checkpoint behind.
func mustInterrupt(t *testing.T, cfg Config) {
	t.Helper()
	res, err := Run(cfg)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted run: got (%v, %v), want ErrInterrupted", res, err)
	}
	if _, err := os.Stat(cfg.Checkpoint.Path); err != nil {
		t.Fatalf("interrupted run left no checkpoint: %v", err)
	}
}

// assertSameOutcome compares everything a resumed run must reproduce: the
// audit digest (the byte-level oracle), the full metric summaries, per-node
// usage, and the settle time.
func assertSameOutcome(t *testing.T, ref, got *Result) {
	t.Helper()
	if ref.Audit == nil || got.Audit == nil {
		t.Fatal("missing audit report")
	}
	if got.Audit.Digest != ref.Audit.Digest {
		t.Errorf("audit digest diverged:\n  uninterrupted %s\n  resumed       %s",
			ref.Audit.Digest, got.Audit.Digest)
	}
	if got.Audit.Events != ref.Audit.Events {
		t.Errorf("audit events = %d, want %d", got.Audit.Events, ref.Audit.Events)
	}
	if !reflect.DeepEqual(got.Summary, ref.Summary) {
		t.Errorf("summary diverged:\n  uninterrupted %+v\n  resumed       %+v", ref.Summary, got.Summary)
	}
	if !reflect.DeepEqual(got.Detection, ref.Detection) {
		t.Errorf("detection summary diverged:\n  uninterrupted %+v\n  resumed       %+v", ref.Detection, got.Detection)
	}
	if !reflect.DeepEqual(got.Usage, ref.Usage) {
		t.Error("per-node usage diverged after resume")
	}
	if got.EndedAt != ref.EndedAt {
		t.Errorf("ended at %v, want %v", got.EndedAt, ref.EndedAt)
	}
}

// TestKillResumeDigestIdentical is the tentpole oracle: a run killed at an
// arbitrary instant and resumed from its flushed checkpoint must be
// indistinguishable — byte-identical audit digest, identical summaries —
// from the same run left alone. The kill points cover all three phases
// (warmup, window, drain) on both node types, G2G and plain, under droppers,
// liars and cheaters, and both window boundaries, where a phase probe and a
// memory tick share the stop instant.
func TestKillResumeDigestIdentical(t *testing.T) {
	cases := []struct {
		name      string
		kind      protocol.Kind
		deviants  []trace.NodeID
		deviation protocol.Deviation
		stopAt    sim.Time
	}{
		// Killed during warmup: quality tables half-built, no traffic yet.
		{"epidemic-warmup-kill", protocol.Epidemic, nil, protocol.Honest, 5 * sim.Hour},
		// Killed mid-window at an odd instant: live custody, pending tests,
		// active contacts, a partially consumed workload.
		{"g2g-epidemic-window-kill", protocol.G2GEpidemic,
			[]trace.NodeID{2, 7, 10}, protocol.Dropper, 14*sim.Hour + 17*sim.Minute},
		// Killed during the drain: generation over, test phases resolving.
		{"g2g-delegation-drain-kill", protocol.G2GDelegationFrequency,
			[]trace.NodeID{2, 7, 10}, protocol.Cheater, 16*sim.Hour + 20*sim.Minute},
		// Killed exactly at WindowFrom: the first memory tick and the
		// window probe fire before the barrier, so the resumed run holds
		// the second tick and the WindowTo probe.
		{"g2g-epidemic-window-from-kill", protocol.G2GEpidemic,
			[]trace.NodeID{2, 7, 10}, protocol.Dropper, 13 * sim.Hour},
		// Killed exactly at WindowTo: the drain probe and a chained memory
		// tick share the instant and both fire before the barrier.
		{"g2g-delegation-window-to-kill", protocol.G2GDelegationFrequency,
			[]trace.NodeID{2, 7, 10}, protocol.Dropper, 16 * sim.Hour},
		// The plain protocols killed while carrying traffic: live buffers
		// and seen sets, and under Delegation quality labels and meeting
		// histories, in the window and in the drain.
		{"epidemic-window-kill", protocol.Epidemic,
			[]trace.NodeID{2, 7, 10}, protocol.Dropper, 14*sim.Hour + 17*sim.Minute},
		{"delegation-last-contact-window-kill", protocol.DelegationLastContact,
			[]trace.NodeID{2, 7, 10}, protocol.Liar, 14*sim.Hour + 17*sim.Minute},
		{"delegation-frequency-drain-kill", protocol.DelegationFrequency,
			[]trace.NodeID{2, 7, 10}, protocol.Dropper, 16*sim.Hour + 20*sim.Minute},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := auditConfig(t, tc.kind)
			cfg.Deviants = tc.deviants
			cfg.Deviation = tc.deviation

			ref, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}

			killCfg := cfg
			killCfg.Checkpoint = CheckpointConfig{Path: filepath.Join(t.TempDir(), "run.ckpt")}
			killCfg.stopAt = tc.stopAt
			mustInterrupt(t, killCfg)

			got, err := Resume(killCfg.Checkpoint.Path, cfg)
			if err != nil {
				t.Fatal(err)
			}
			assertSameOutcome(t, ref, got)
		})
	}
}

// TestKillResumeTwice chains two kills: the second checkpoint is written by
// a *resumed* engine, proving a resumed run is itself checkpointable.
func TestKillResumeTwice(t *testing.T) {
	cfg := auditConfig(t, protocol.G2GEpidemic)
	cfg.Deviants = []trace.NodeID{2, 7}
	cfg.Deviation = protocol.Dropper

	ref, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	kill1 := cfg
	kill1.Checkpoint = CheckpointConfig{Path: filepath.Join(dir, "first.ckpt")}
	kill1.stopAt = 13*sim.Hour + 40*sim.Minute
	mustInterrupt(t, kill1)

	kill2 := cfg
	kill2.Checkpoint = CheckpointConfig{Path: filepath.Join(dir, "second.ckpt")}
	kill2.stopAt = 15*sim.Hour + 3*sim.Minute
	if res, err := Resume(kill1.Checkpoint.Path, kill2); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("second kill: got (%v, %v), want ErrInterrupted", res, err)
	}

	got, err := Resume(kill2.Checkpoint.Path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertSameOutcome(t, ref, got)
}

// TestPeriodicCheckpointResumable runs to completion with periodic emission
// on and resumes from the last periodic snapshot: the replayed tail must
// land on the same digest. This exercises the ctrlPeriodic chain end to end.
// The droppers case adds failed tests and PoM broadcasts to the replayed
// tail, and resumes with an empty storage-proof memo (it is never
// checkpointed), which must not change a digest.
func TestPeriodicCheckpointResumable(t *testing.T) {
	cases := []struct {
		name      string
		kind      protocol.Kind
		deviants  []trace.NodeID
		deviation protocol.Deviation
	}{
		{"g2g-epidemic", protocol.G2GEpidemic, nil, protocol.Honest},
		{"g2g-delegation-frequency-droppers", protocol.G2GDelegationFrequency,
			[]trace.NodeID{2, 7}, protocol.Dropper},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := auditConfig(t, tc.kind)
			cfg.Deviants = tc.deviants
			cfg.Deviation = tc.deviation
			ref, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}

			ckptCfg := cfg
			ckptCfg.Checkpoint = CheckpointConfig{
				Path:  filepath.Join(t.TempDir(), "periodic.ckpt"),
				Every: 90 * sim.Minute,
			}
			full, err := Run(ckptCfg)
			if err != nil {
				t.Fatal(err)
			}
			if full.Audit.Digest != ref.Audit.Digest {
				t.Fatal("periodic checkpointing perturbed the run digest")
			}

			got, err := Resume(ckptCfg.Checkpoint.Path, cfg)
			if err != nil {
				t.Fatal(err)
			}
			assertSameOutcome(t, ref, got)
		})
	}
}

// TestResumeRejectsCorruption takes one real checkpoint and mangles it every
// way the format must survive: truncations at and below every boundary, bit
// flips in header and payload, a wrong magic, an unknown version. Every
// variant must come back as an error — never a panic, never a silent
// mis-resume.
func TestResumeRejectsCorruption(t *testing.T) {
	cfg := auditConfig(t, protocol.G2GEpidemic)
	kill := cfg
	kill.Checkpoint = CheckpointConfig{Path: filepath.Join(t.TempDir(), "run.ckpt")}
	kill.stopAt = 14 * sim.Hour
	mustInterrupt(t, kill)

	valid, err := os.ReadFile(kill.Checkpoint.Path)
	if err != nil {
		t.Fatal(err)
	}
	if ck, err := parseCheckpoint(valid); err != nil || ck == nil {
		t.Fatalf("valid checkpoint did not parse: %v", err)
	}

	mangle := func(name string, data []byte, want error) {
		t.Run(name, func(t *testing.T) {
			ck, err := parseCheckpoint(data)
			if err == nil {
				t.Fatalf("parsed a %s checkpoint: %+v", name, ck)
			}
			if want != nil && !errors.Is(err, want) {
				t.Fatalf("error = %v, want %v", err, want)
			}
			// The full Resume path must degrade just as gracefully.
			path := filepath.Join(t.TempDir(), "bad.ckpt")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if res, err := Resume(path, cfg); err == nil {
				t.Fatalf("resumed from a %s checkpoint: %+v", name, res)
			}
		})
	}

	mangle("empty", nil, ErrCheckpointCorrupt)
	mangle("truncated-header", valid[:checkpointHeaderLen-3], ErrCheckpointCorrupt)
	mangle("truncated-payload", valid[:len(valid)/2], ErrCheckpointCorrupt)
	mangle("truncated-one-byte", valid[:len(valid)-1], ErrCheckpointCorrupt)

	flip := func(i int) []byte {
		out := append([]byte(nil), valid...)
		out[i] ^= 0x40
		return out
	}
	mangle("bad-magic", flip(0), ErrCheckpointCorrupt)
	mangle("bad-version", flip(7), ErrCheckpointVersion)
	// Format v3 stored one state branch per protocol family, not per node
	// type, and no Kind: its node states cannot be read as v4's.
	v3 := append([]byte(nil), valid...)
	binary.BigEndian.PutUint32(v3[4:8], 3)
	mangle("version-3", v3, ErrCheckpointVersion)
	mangle("checksum-flip", flip(10), ErrCheckpointCorrupt)
	mangle("payload-flip", flip(checkpointHeaderLen+17), ErrCheckpointCorrupt)
	mangle("payload-tail-flip", flip(len(valid)-5), ErrCheckpointCorrupt)

	// The checksum is unkeyed: an edited file re-encoded with a fresh
	// checksum parses. Resume must still refuse stored events that cannot
	// belong to the run, before they reach the engine.
	reencode := func(name string, edit func(*checkpoint)) {
		t.Run(name, func(t *testing.T) {
			ck, err := parseCheckpoint(valid)
			if err != nil {
				t.Fatal(err)
			}
			edit(ck)
			data, err := encodeCheckpoint(ck)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "edited.ckpt")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if res, err := Resume(path, cfg); !errors.Is(err, ErrCheckpointCorrupt) {
				t.Fatalf("got (%v, %v), want ErrCheckpointCorrupt", res, err)
			}
		})
	}
	reencode("contact-end-node-out-of-range", func(ck *checkpoint) {
		for i := range ck.Events {
			if ck.Events[i].Op == opContactEnd {
				ck.Events[i].A = 9999
				return
			}
		}
		t.Fatal("checkpoint holds no active contact")
	})
	reencode("unknown-op", func(ck *checkpoint) {
		ck.Events[len(ck.Events)-1].Op = 99
	})
}

// TestResumeRejectsMismatchedConfig pins the fingerprint gate: a checkpoint
// resumes only under the configuration it was captured from.
func TestResumeRejectsMismatchedConfig(t *testing.T) {
	cfg := auditConfig(t, protocol.G2GEpidemic)
	kill := cfg
	kill.Checkpoint = CheckpointConfig{Path: filepath.Join(t.TempDir(), "run.ckpt")}
	kill.stopAt = 14 * sim.Hour
	mustInterrupt(t, kill)

	mutations := map[string]func(*Config){
		"seed":     func(c *Config) { c.Seed++ },
		"protocol": func(c *Config) { c.Protocol = protocol.Epidemic },
		"window":   func(c *Config) { c.WindowTo += sim.Minute },
		"deviants": func(c *Config) { c.Deviants = []trace.NodeID{3}; c.Deviation = protocol.Dropper },
		"interval": func(c *Config) { c.MessageInterval = sim.Minute },
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			other := cfg
			mutate(&other)
			res, err := Resume(kill.Checkpoint.Path, other)
			if !errors.Is(err, ErrCheckpointMismatch) {
				t.Fatalf("got (%v, %v), want ErrCheckpointMismatch", res, err)
			}
		})
	}
}

// TestResumeRejectsAnotherTrace pins that a checkpoint resumes only under
// the trace it was captured on, whatever state its contact cursor was in:
// closed at the run's end, open, or closed at the end of the stream. Each
// checkpoint resumes under its own trace.
func TestResumeRejectsAnotherTrace(t *testing.T) {
	full := testTrace(t, 1)
	contacts := full.Contacts()
	// The same contacts with the first one a second longer.
	early := append([]trace.Contact(nil), contacts...)
	early[0].End += sim.Second
	// The contacts that start before 15h: the stream ends before the run.
	n := 0
	for n < len(contacts) && contacts[n].Start < 15*sim.Hour {
		n++
	}
	withContacts := func(t *testing.T, c []trace.Contact) *trace.Trace {
		tr, err := trace.New(full.Name(), full.Nodes(), c)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	cases := []struct {
		name              string
		captured, resumed []trace.Contact
		stopAt            sim.Time
		// closed and atEnd are the cursor's state at the kill: closed, and
		// closed because the stream ended.
		closed, atEnd bool
	}{
		{"closed-cursor-other-trace", contacts, testTrace(t, 2).Contacts(), 16*sim.Hour + 59*sim.Minute, true, false},
		{"open-cursor-early-contact-changed", contacts, early, 14 * sim.Hour, false, false},
		{"end-of-stream-trace-extended", contacts[:n], contacts, 16 * sim.Hour, true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := auditConfig(t, protocol.G2GEpidemic)
			cfg.Trace = withContacts(t, tc.captured)
			kill := cfg
			kill.Checkpoint = CheckpointConfig{Path: filepath.Join(t.TempDir(), "run.ckpt")}
			kill.stopAt = tc.stopAt
			mustInterrupt(t, kill)
			data, err := os.ReadFile(kill.Checkpoint.Path)
			if err != nil {
				t.Fatal(err)
			}
			ck, err := parseCheckpoint(data)
			if err != nil {
				t.Fatal(err)
			}
			if ck.CursorClosed != tc.closed || (ck.CursorIdx == len(tc.captured)) != tc.atEnd {
				t.Fatalf("cursor closed: %t after %d of %d contacts; the case needs closed %t, at the end %t",
					ck.CursorClosed, ck.CursorIdx, len(tc.captured), tc.closed, tc.atEnd)
			}

			other := cfg
			other.Trace = withContacts(t, tc.resumed)
			if res, err := Resume(kill.Checkpoint.Path, other); !errors.Is(err, ErrCheckpointMismatch) {
				t.Fatalf("resumed under another trace: got (%v, %v), want ErrCheckpointMismatch", res, err)
			}
			if _, err := Resume(kill.Checkpoint.Path, cfg); err != nil {
				t.Fatalf("resume under the captured trace: %v", err)
			}
		})
	}
}

// TestCheckpointValidation pins the configuration gates.
func TestCheckpointValidation(t *testing.T) {
	cfg := baseConfig(t, protocol.Epidemic)
	cfg.Checkpoint = CheckpointConfig{Every: sim.Hour}
	if err := cfg.Validate(); err == nil {
		t.Error("interval without a path validated")
	}
	cfg.Checkpoint = CheckpointConfig{Path: "x.ckpt", Every: -sim.Hour}
	if err := cfg.Validate(); err == nil {
		t.Error("negative interval validated")
	}
	cfg.Checkpoint = CheckpointConfig{Path: "x.ckpt"}
	cfg.Crypto = CryptoReal
	if err := cfg.Validate(); err == nil {
		t.Error("checkpointing with real crypto validated")
	}
}

// FuzzParseCheckpoint hammers the parser with corrupted checkpoints:
// whatever the bytes, it must return an error or a checkpoint — never
// panic.
func FuzzParseCheckpoint(f *testing.F) {
	small, err := encodeCheckpoint(&checkpoint{Now: sim.Hour, CursorClosed: true})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(small)
	f.Add(small[:len(small)-3])
	f.Add(small[:checkpointHeaderLen])
	f.Add([]byte(checkpointMagic))
	f.Add([]byte{})
	flipped := append([]byte(nil), small...)
	flipped[len(flipped)/2] ^= 0xff
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := parseCheckpoint(data)
		if err == nil && ck == nil {
			t.Fatal("nil checkpoint without an error")
		}
	})
}

// FuzzRestoreCheckpoint edits one event of a real mid-run checkpoint (its
// Op, A, B, P, Pri and At) and the cursor position, then restores the result
// into a fresh engine: whatever the values, the restore must return an error
// or succeed — never panic. Only the restore runs, not the simulation, so
// each execution is cheap.
func FuzzRestoreCheckpoint(f *testing.F) {
	cfg := auditConfig(f, protocol.G2GEpidemic)
	cfg.Deviants = []trace.NodeID{2, 7}
	cfg.Deviation = protocol.Dropper
	kill := cfg
	kill.Checkpoint = CheckpointConfig{Path: filepath.Join(f.TempDir(), "run.ckpt")}
	kill.stopAt = 14*sim.Hour + 17*sim.Minute
	if res, err := Run(kill); !errors.Is(err, ErrInterrupted) {
		f.Fatalf("interrupted run: got (%v, %v), want ErrInterrupted", res, err)
	}
	data, err := os.ReadFile(kill.Checkpoint.Path)
	if err != nil {
		f.Fatal(err)
	}
	base, err := parseCheckpoint(data)
	if err != nil {
		f.Fatal(err)
	}
	for i, ev := range base.Events {
		f.Add(i, ev.Op, ev.A, ev.B, ev.P, ev.Pri, int64(ev.At), base.CursorIdx)
	}
	f.Fuzz(func(t *testing.T, i int, op uint32, a, b int32, p uint64, pri, at int64, cursorIdx int) {
		// Restore only reads the stored state, so every execution can share
		// base apart from the edited fields.
		ck := *base
		ck.Events = append([]queuedEvent(nil), base.Events...)
		ck.Events[uint(i)%uint(len(ck.Events))] = queuedEvent{At: sim.Time(at), Pri: pri, Op: op, A: a, B: b, P: p}
		ck.CursorIdx = cursorIdx
		e, err := newEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer e.closeCursor()
		_ = e.restoreCheckpoint(sim.New(), &ck)
	})
}
