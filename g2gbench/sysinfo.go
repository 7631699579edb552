package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// envStamp is recorded with every result: the machine and settings the
// numbers were measured under.
type envStamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      bool   `json:"trace"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func stamp(workload string, seed int64, traced bool) envStamp {
	return envStamp{
		Workload:   workload,
		Seed:       seed,
		Trace:      traced,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo; "unknown" where
// the file is missing (non-Linux hosts).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// hostTicks reads the cumulative steal and total ticks of all CPUs from
// /proc/stat. Steal is time the hypervisor gave the machine's vCPUs to
// someone else while they had work: on a shared host it explains most of
// the run-to-run spread of wall times. ok is false where /proc/stat is
// missing.
func hostTicks() (steal, total uint64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	// user nice system idle iowait irq softirq steal; the guest columns
	// after them are already counted in user and nice.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// stealMeter reports the host's steal share over an interval.
type stealMeter struct {
	steal, total uint64
	ok           bool
}

func startSteal() stealMeter {
	s, t, ok := hostTicks()
	return stealMeter{s, t, ok}
}

// String renders the steal share since the meter started.
func (m stealMeter) String() string {
	s, t, ok := hostTicks()
	if !m.ok || !ok || t <= m.total {
		return "host steal unknown"
	}
	return fmt.Sprintf("host steal %.1f%% of CPU time", 100*float64(s-m.steal)/float64(t-m.total))
}

// cpuNow returns the user plus system CPU time the process has spent so far,
// across all its threads.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the peak resident set size of the process in MiB
// (getrusage reports it in KiB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// gcSample is a reading of the Go runtime's allocation and collector
// counters; the difference of two samples is what one execution cost.
type gcSample struct {
	allocBytes uint64
	cycles     uint64
	cpuSeconds float64
}

var gcMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readGC() gcSample {
	samples := make([]metrics.Sample, len(gcMetricNames))
	for i, n := range gcMetricNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	var g gcSample
	if v := samples[0].Value; v.Kind() == metrics.KindUint64 {
		g.allocBytes = v.Uint64()
	}
	if v := samples[1].Value; v.Kind() == metrics.KindUint64 {
		g.cycles = v.Uint64()
	}
	if v := samples[2].Value; v.Kind() == metrics.KindFloat64 {
		g.cpuSeconds = v.Float64()
	}
	return g
}

func (g gcSample) sub(base gcSample) gcSample {
	return gcSample{
		allocBytes: g.allocBytes - base.allocBytes,
		cycles:     g.cycles - base.cycles,
		cpuSeconds: g.cpuSeconds - base.cpuSeconds,
	}
}
