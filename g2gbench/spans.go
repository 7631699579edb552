package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one region the benchmark timed around a call into the program:
// a set-up step, a top-level call, or an outside layer pass. Exec groups
// the spans of one workload execution; Parent is the id of the enclosing
// span (0 for a root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Exec    string `json:"exec"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) wall() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// spanLog keeps the benchmark's spans in memory until the process writes
// them out at exit. It is used from the benchmark's main goroutine only.
type spanLog struct {
	origin time.Time
	exec   string
	spans  []span
	open   []int // indices into spans of the regions still open
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// setExec starts a new workload execution: later spans carry its id.
func (l *spanLog) setExec(id string) { l.exec = id }

// begin opens a region nested in the innermost open one and returns the
// function that closes it.
func (l *spanLog) begin(name string) func() {
	parent := 0
	if n := len(l.open); n > 0 {
		parent = l.spans[l.open[n-1]].ID
	}
	l.spans = append(l.spans, span{
		ID:      len(l.spans) + 1,
		Parent:  parent,
		Exec:    l.exec,
		Name:    name,
		StartNS: int64(time.Since(l.origin)),
	})
	idx := len(l.spans) - 1
	l.open = append(l.open, idx)
	return func() {
		l.spans[idx].EndNS = int64(time.Since(l.origin))
		l.open = l.open[:len(l.open)-1]
	}
}

// selfTimes returns, per span name within one execution, the summed wall
// time minus the part covered by direct child spans.
func selfTimes(spans []span, exec string) map[string]time.Duration {
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	self := make(map[string]time.Duration)
	for _, s := range spans {
		if s.Exec != exec {
			continue
		}
		self[s.Name] += s.wall()
		if p, ok := byID[s.Parent]; ok && p.Exec == exec {
			self[p.Name] -= s.wall()
		}
	}
	return self
}

// write dumps the spans as one JSON document under dir.
func (l *spanLog) write(dir, name string, env envStamp) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("span dump: %w", err)
	}
	path := filepath.Join(dir, name)
	data, err := json.MarshalIndent(struct {
		Env   envStamp `json:"env"`
		Spans []span   `json:"spans"`
	}{env, l.spans}, "", " ")
	if err != nil {
		return "", fmt.Errorf("span dump: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("span dump: %w", err)
	}
	return path, nil
}
