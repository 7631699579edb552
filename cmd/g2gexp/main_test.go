package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunList(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-list"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fig3", "fig8", "table1", "abl-fanout"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("list missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunSingleExperimentQuick(t *testing.T) {
	report := filepath.Join(t.TempDir(), "telemetry.json")
	var out, errOut bytes.Buffer
	err := run([]string{"-experiment", "secV", "-quick", "-v", "-telemetry", report}, &out, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "detection probability") {
		t.Errorf("output:\n%s", out.String())
	}
	if !strings.Contains(errOut.String(), "secV") {
		t.Errorf("verbose progress missing:\n%s", errOut.String())
	}
	b, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Schema string `json:"schema"`
		Engine struct {
			MessagesGenerated int64 `json:"messages_generated"`
		} `json:"engine"`
	}
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Schema == "" || snap.Engine.MessagesGenerated == 0 {
		t.Errorf("aggregated telemetry empty:\n%s", b)
	}
}

// TestRunJobsByteIdentical checks the CLI contract stated on the -jobs flag:
// the same invocation at different job counts prints the same bytes.
func TestRunJobsByteIdentical(t *testing.T) {
	render := func(jobs string) string {
		var out, errOut bytes.Buffer
		if err := run([]string{"-experiment", "secV", "-quick", "-jobs", jobs}, &out, &errOut); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	seq := render("1")
	if par := render("4"); par != seq {
		t.Errorf("output differs between -jobs 1 and -jobs 4:\n%s\nvs\n%s", seq, par)
	}
}

// TestResumeRendersRestoredRuns renders experiments wholly from their
// journals: a resume that restores every run, running none (with -v a run
// prints a "run i/n" line), must print the same tables as the journaled
// invocation. payoff reads each restored result's detections, per-source
// counts and usage.
func TestResumeRendersRestoredRuns(t *testing.T) {
	dir := t.TempDir()
	for _, id := range []string{"payoff", "fig7"} {
		render := func(extra ...string) (string, string) {
			t.Helper()
			var out, errOut bytes.Buffer
			args := append([]string{"-experiment", id, "-tiny", "-audit", "-v", "-checkpoint-dir", dir}, extra...)
			if err := run(args, &out, &errOut); err != nil {
				t.Fatalf("%v: %v", args, err)
			}
			return out.String(), errOut.String()
		}
		want, ran := render()
		if !strings.HasPrefix(ran, "run ") {
			t.Fatalf("%s: the journaled invocation logged no runs:\n%s", id, ran)
		}
		got, progress := render("-resume")
		if got != want {
			t.Errorf("%s: restored runs render\n%s\nthe journaled invocation rendered\n%s", id, got, want)
		}
		for _, line := range strings.Split(progress, "\n") {
			if strings.HasPrefix(line, "run ") {
				t.Errorf("%s: the resume ran a journaled run again: %q", id, line)
			}
		}
	}
}

// TestRunSpansFig7 drives the acceptance scenario end to end: a
// telemetry-enabled Fig. 7 run with the auditor on reports a per-phase span
// table spanning the whole stack — engine (contact_schedule, session),
// protocol (relay, test, por), crypto (crypto_hmac), audit, and the sweep
// scheduler (sweep_dispatch).
func TestRunSpansFig7(t *testing.T) {
	report := filepath.Join(t.TempDir(), "telemetry.json")
	var out, errOut bytes.Buffer
	err := run([]string{"-experiment", "fig7", "-tiny", "-audit",
		"-telemetry", report}, &out, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Spans []struct {
			Name  string `json:"name"`
			Count int64  `json:"count"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatal(err)
	}
	got := make(map[string]bool, len(snap.Spans))
	for _, sp := range snap.Spans {
		if sp.Count <= 0 {
			t.Errorf("span %s has zero count", sp.Name)
		}
		got[sp.Name] = true
	}
	if len(got) < 6 {
		t.Errorf("want >= 6 named phases, got %d: %v", len(got), snap.Spans)
	}
	for _, want := range []string{"trace_load", "contact_schedule", "session",
		"relay", "test", "por", "crypto_hmac", "audit", "sweep_dispatch"} {
		if !got[want] {
			t.Errorf("span table missing %s: %v", want, snap.Spans)
		}
	}
}

// TestRunRejectsInputsBeforeRunning pins that -format and every experiment
// id are checked before the first run: with -v, a run that started would
// log a "run i/n" line to stderr before the error.
func TestRunRejectsInputsBeforeRunning(t *testing.T) {
	for _, args := range [][]string{
		{"-experiment", "secV", "-format", "xml"},
		{"-experiment", "secV,bogus"},
	} {
		var out, errOut bytes.Buffer
		if err := run(append([]string{"-tiny", "-v"}, args...), &out, &errOut); err == nil {
			t.Errorf("%v accepted", args)
		}
		for _, line := range strings.Split(errOut.String(), "\n") {
			if strings.HasPrefix(line, "run ") {
				t.Errorf("%v ran before rejecting its input: %q", args, line)
			}
		}
		if out.Len() != 0 {
			t.Errorf("%v printed before rejecting its input:\n%s", args, out.String())
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-experiment", "bogus"}, &out, &errOut); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunBadFlag(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-nope"}, &out, &errOut); err == nil {
		t.Error("bad flag accepted")
	}
}
