package obs

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Profiler holds the profiling options every CLI exposes: a CPU profile and
// a heap profile, each written to a file. The zero value (both fields empty)
// starts nothing and stops instantly.
type Profiler struct {
	CPUProfile string
	MemProfile string

	cpuFile *os.File
}

// RegisterFlags wires the standard profiling flags onto fs.
func (p *Profiler) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&p.CPUProfile, "cpuprofile", "", "write a CPU profile to `file`")
	fs.StringVar(&p.MemProfile, "memprofile", "", "write a heap profile to `file` on exit")
}

// Start begins the configured profiling. It returns a stop function that
// must be called before exit: it stops the CPU profile and writes the heap
// profile. On error nothing is left running.
func (p *Profiler) Start() (stop func() error, err error) {
	if p.CPUProfile != "" {
		f, err := os.Create(p.CPUProfile)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		p.cpuFile = f
	}
	return p.stop, nil
}

func (p *Profiler) stop() error {
	if p.cpuFile != nil {
		pprof.StopCPUProfile()
		p.cpuFile.Close()
		p.cpuFile = nil
	}
	if p.MemProfile == "" {
		return nil
	}
	f, err := os.Create(p.MemProfile)
	if err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	runtime.GC()
	err = pprof.WriteHeapProfile(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	return nil
}
