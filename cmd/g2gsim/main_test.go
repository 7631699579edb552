package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"give2get"
)

func TestRunBasic(t *testing.T) {
	var out, errOut bytes.Buffer
	err := run([]string{
		"-preset", "infocom05", "-protocol", "g2g-epidemic",
		"-ttl", "30m", "-interval", "2m",
	}, &out, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"protocol:", "messages:", "delay:", "cost:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "detection:") {
		t.Error("detection line printed without deviants")
	}
}

// TestRunWithDeviants spreads the deviants from the seed, which may be
// negative.
func TestRunWithDeviants(t *testing.T) {
	for _, seed := range []string{"1", "-3"} {
		var out, errOut bytes.Buffer
		err := run([]string{
			"-preset", "infocom05", "-protocol", "g2g-epidemic",
			"-ttl", "30m", "-interval", "2m", "-seed", seed,
			"-deviants", "5", "-deviation", "dropper",
		}, &out, &errOut)
		if err != nil {
			t.Fatalf("-seed %s: %v", seed, err)
		}
		for _, want := range []string{"5 droppers", "detection:", "0 false accusations"} {
			if !strings.Contains(out.String(), want) {
				t.Errorf("-seed %s: output missing %q:\n%s", seed, want, out.String())
			}
		}
	}
}

// TestRunSweepRepeats exercises the -repeats/-jobs path and checks the sweep
// report is identical at different job counts.
func TestRunSweepRepeats(t *testing.T) {
	sweep := func(jobs string) string {
		var out, errOut bytes.Buffer
		err := run([]string{
			"-preset", "infocom05", "-protocol", "g2g-epidemic",
			"-ttl", "30m", "-interval", "2m",
			"-repeats", "2", "-jobs", jobs,
		}, &out, &errOut)
		if err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	seq := sweep("1")
	if !strings.Contains(seq, "mean over 2 repeats") || !strings.Contains(seq, "seeds=1..2") {
		t.Errorf("sweep report:\n%s", seq)
	}
	if par := sweep("2"); par != seq {
		t.Errorf("sweep output differs between -jobs 1 and -jobs 2:\n%s\nvs\n%s", seq, par)
	}
}

// TestResumeUnderChangedProtocol journals an Epidemic sweep, then resumes
// the directory with G2G Epidemic: the journaled runs belong to another
// configuration, so the output must be a fresh G2G Epidemic sweep's (45.9%
// success), not Epidemic's 52.3%. A second resume restores the G2G runs it
// journaled and prints the same again.
func TestResumeUnderChangedProtocol(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	sweep := func(extra ...string) string {
		t.Helper()
		args := append([]string{"-preset", "infocom05", "-ttl", "10m", "-interval", "60s",
			"-repeats", "2", "-jobs", "2"}, extra...)
		var out, errOut bytes.Buffer
		if err := run(args, &out, &errOut); err != nil {
			t.Fatalf("%v: %v\nstderr:\n%s", extra, err, errOut.String())
		}
		return out.String()
	}
	epidemic := sweep("-checkpoint-dir", dir, "-protocol", "epidemic")
	want := sweep("-protocol", "g2g-epidemic")
	if !strings.Contains(epidemic, "success:     52.3%") || !strings.Contains(want, "success:     45.9%") {
		t.Fatalf("unexpected references:\n%s\n%s", epidemic, want)
	}
	for pass := 0; pass < 2; pass++ {
		if got := sweep("-checkpoint-dir", dir, "-protocol", "g2g-epidemic", "-resume"); got != want {
			t.Errorf("resume %d printed\n%s\nwant the fresh run's\n%s", pass, got, want)
		}
	}
}

// TestJournalEntrySize bounds what the journal keeps of a run: its result,
// which grows with the population and the deliveries, not with the
// messages. The audited Infocom05 run (41 nodes, 1,729 messages) journals
// about 25 KB.
func TestJournalEntrySize(t *testing.T) {
	dir := t.TempDir()
	var out, errOut bytes.Buffer
	if err := run([]string{"-preset", "infocom05", "-protocol", "epidemic", "-audit",
		"-checkpoint-dir", dir}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "1729 generated") {
		t.Fatalf("unexpected workload:\n%s", out.String())
	}
	info, err := os.Stat(filepath.Join(dir, "sweep.journal"))
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() >= 64<<10 {
		t.Errorf("the run's journal entry is %d bytes, want under 64 KB", info.Size())
	}
}

// TestResumeUnderOtherTrace journals a run over one Infocom trace, then
// resumes the directory over another of the same population, with the same
// window and settings: the journaled run belongs to the first trace's
// contacts, so the output must be a fresh run's over the second (1
// delivered), not the journaled 2.
func TestResumeUnderOtherTrace(t *testing.T) {
	tmp := t.TempDir()
	paths := make([]string, 2)
	for i := range paths {
		tr, err := give2get.GenerateTrace(give2get.PresetInfocom05, int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			t.Fatal(err)
		}
		paths[i] = filepath.Join(tmp, fmt.Sprintf("trace-%d.txt", i+1))
		if err := os.WriteFile(paths[i], buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	dir := filepath.Join(tmp, "ckpt")
	sim := func(path string, extra ...string) string {
		t.Helper()
		args := append([]string{"-trace", path, "-window", "30h", "-ttl", "10m", "-interval", "60s"}, extra...)
		var out, errOut bytes.Buffer
		if err := run(args, &out, &errOut); err != nil {
			t.Fatalf("%s %v: %v\nstderr:\n%s", path, extra, err, errOut.String())
		}
		return out.String()
	}
	journaled := sim(paths[0], "-checkpoint-dir", dir)
	want := sim(paths[1])
	if !strings.Contains(journaled, "2 delivered (1.6%)") || !strings.Contains(want, "1 delivered (0.8%)") {
		t.Fatalf("unexpected references:\n%s\n%s", journaled, want)
	}
	if got := sim(paths[1], "-checkpoint-dir", dir, "-resume"); got != want {
		t.Errorf("resume over the other trace printed\n%s\nwant the fresh run's\n%s", got, want)
	}
}

// TestTraceLogWriteError points -tracelog at a device that refuses every
// write: the run must fail with the write error, as -telemetry does.
func TestTraceLogWriteError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full:", err)
	}
	var out, errOut bytes.Buffer
	err := run([]string{
		"-preset", "infocom05", "-protocol", "g2g-epidemic",
		"-ttl", "30m", "-interval", "2m", "-tracelog", "/dev/full",
	}, &out, &errOut)
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("-tracelog /dev/full: %v, want ENOSPC", err)
	}
}

// TestProfileWriteError points -cpuprofile, then -memprofile, at a device
// that refuses every write: the run must fail with the write error, as
// -tracelog and -telemetry do, though runtime/pprof drops it.
func TestProfileWriteError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full:", err)
	}
	for _, flag := range []string{"-cpuprofile", "-memprofile"} {
		t.Run(flag, func(t *testing.T) {
			var out, errOut bytes.Buffer
			err := run([]string{
				"-preset", "infocom05", "-protocol", "g2g-epidemic",
				"-ttl", "30m", "-interval", "2m", flag, "/dev/full",
			}, &out, &errOut)
			if !errors.Is(err, syscall.ENOSPC) {
				t.Fatalf("%s /dev/full: %v, want ENOSPC", flag, err)
			}
		})
	}
}

func TestRunErrors(t *testing.T) {
	tests := []struct {
		name string
		args []string
	}{
		{name: "unknown protocol", args: []string{"-protocol", "bogus"}},
		{name: "unknown preset", args: []string{"-preset", "bogus"}},
		{name: "missing trace file", args: []string{"-trace", "/does/not/exist"}},
		{name: "bad flag", args: []string{"-nope"}},
		{name: "unknown deviation", args: []string{"-deviants", "3", "-deviation", "bogus", "-interval", "2m"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var out, errOut bytes.Buffer
			if err := run(tt.args, &out, &errOut); err == nil {
				t.Error("invalid invocation accepted")
			}
		})
	}
}

func TestRunTelemetryReport(t *testing.T) {
	dir := t.TempDir()
	report := filepath.Join(dir, "report.json")
	traceLog := filepath.Join(dir, "trace.jsonl")
	var out, errOut bytes.Buffer
	err := run([]string{
		"-preset", "infocom05", "-protocol", "g2g-epidemic",
		"-ttl", "30m", "-interval", "2m",
		"-telemetry", report, "-tracelog", traceLog,
		"-memprofile", filepath.Join(dir, "mem.out"),
	}, &out, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "telemetry:") {
		t.Errorf("no telemetry line:\n%s", out.String())
	}

	b, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Schema string `json:"schema"`
		Sim    struct {
			EventsFired int64 `json:"events_fired"`
		} `json:"sim"`
		Engine struct {
			MessagesGenerated int64 `json:"messages_generated"`
			Phases            struct {
				Window struct {
					WallNS int64 `json:"wall_ns"`
				} `json:"window"`
			} `json:"phases"`
		} `json:"engine"`
		Protocol struct {
			Wire map[string]json.RawMessage `json:"wire"`
		} `json:"protocol"`
		Crypto struct {
			Provider string `json:"provider"`
			Sign     struct {
				TotalNS int64 `json:"total_ns"`
			} `json:"sign"`
			HeavyHMAC struct {
				TotalNS int64 `json:"total_ns"`
			} `json:"heavy_hmac"`
		} `json:"crypto"`
		Spans []struct {
			Name string `json:"name"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Schema == "" || snap.Sim.EventsFired == 0 || snap.Engine.MessagesGenerated == 0 ||
		len(snap.Protocol.Wire) == 0 || snap.Crypto.Provider == "" {
		t.Errorf("report missing subsystem data:\n%s", b)
	}
	if snap.Engine.Phases.Window.WallNS <= 0 {
		t.Errorf("report missing phase timings:\n%s", b)
	}
	// -telemetry must time the primitives and record the span profile, not
	// report zeros.
	if snap.Crypto.Sign.TotalNS <= 0 || snap.Crypto.HeavyHMAC.TotalNS <= 0 {
		t.Errorf("crypto timings are zero: sign total_ns=%d heavy_hmac total_ns=%d",
			snap.Crypto.Sign.TotalNS, snap.Crypto.HeavyHMAC.TotalNS)
	}
	hasHMACSpan := false
	for _, sp := range snap.Spans {
		hasHMACSpan = hasHMACSpan || sp.Name == "crypto_hmac"
	}
	if !hasHMACSpan {
		t.Errorf("report has no crypto_hmac span: %+v", snap.Spans)
	}

	tl, err := os.ReadFile(traceLog)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(tl, []byte(`"event":"generate"`)) {
		t.Errorf("trace log has no generate records:\n%.300s", tl)
	}
	if fi, err := os.Stat(filepath.Join(dir, "mem.out")); err != nil || fi.Size() == 0 {
		t.Errorf("heap profile not written: %v", err)
	}
}

// TestRunSweepTelemetry checks that -repeats with -telemetry writes the
// report of the shared registry: its event count is the sum of the single
// runs at the sweep's seeds (the committed trace keeps the contacts fixed
// across seeds).
func TestRunSweepTelemetry(t *testing.T) {
	dir := t.TempDir()
	eventsFired := func(name string, extra ...string) int64 {
		t.Helper()
		report := filepath.Join(dir, name+".json")
		args := append([]string{
			"-trace", "testdata/contacts.txt", "-protocol", "g2g-epidemic",
			"-ttl", "20m", "-interval", "2m", "-telemetry", report,
		}, extra...)
		var out, errOut bytes.Buffer
		if err := run(args, &out, &errOut); err != nil {
			t.Fatalf("%s: %v\nstderr:\n%s", name, err, errOut.String())
		}
		b, err := os.ReadFile(report)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var snap struct {
			Sim struct {
				EventsFired int64 `json:"events_fired"`
			} `json:"sim"`
		}
		if err := json.Unmarshal(b, &snap); err != nil {
			t.Fatal(err)
		}
		return snap.Sim.EventsFired
	}
	first := eventsFired("seed1", "-seed", "1")
	second := eventsFired("seed2", "-seed", "2")
	sweep := eventsFired("sweep", "-seed", "1", "-repeats", "2")
	if first == 0 || second == 0 || sweep != first+second {
		t.Errorf("sweep events_fired = %d, want %d + %d", sweep, first, second)
	}
}

// TestRunTelemetrySpans checks that the telemetry report carries the
// per-phase span table: trace_load from the CLI itself plus engine and
// protocol spans from inside the run.
func TestRunTelemetrySpans(t *testing.T) {
	dir := t.TempDir()
	report := filepath.Join(dir, "report.json")
	var out, errOut bytes.Buffer
	err := run([]string{
		"-preset", "infocom05", "-protocol", "g2g-epidemic",
		"-ttl", "30m", "-interval", "2m", "-telemetry", report,
	}, &out, &errOut)
	if err != nil {
		t.Fatal(err)
	}

	b, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Spans []struct {
			Name   string `json:"name"`
			Count  int64  `json:"count"`
			WallNS int64  `json:"wall_ns"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatal(err)
	}
	got := make(map[string]bool, len(snap.Spans))
	for _, sp := range snap.Spans {
		if sp.Count <= 0 || sp.WallNS < 0 {
			t.Errorf("span %s has bogus stats: %+v", sp.Name, sp)
		}
		got[sp.Name] = true
	}
	for _, want := range []string{"trace_load", "contact_schedule", "session", "relay", "test", "por", "crypto_hmac"} {
		if !got[want] {
			t.Errorf("span table missing %s: %v", want, snap.Spans)
		}
	}
}

func TestDedupe(t *testing.T) {
	got := dedupe([]int{3, 1, 3, 2, 1})
	if len(got) != 3 || got[0] != 3 || got[1] != 1 || got[2] != 2 {
		t.Errorf("dedupe = %v", got)
	}
}
