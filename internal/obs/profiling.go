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

	cpuFile *profileFile
}

// profileFile is a profile's output file. It keeps the first write error,
// which runtime/pprof drops, for close to return.
type profileFile struct {
	*os.File
	err error
}

func createProfile(path string) (*profileFile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &profileFile{File: f}, nil
}

func (f *profileFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	if err != nil && f.err == nil {
		f.err = err
	}
	return n, err
}

// close closes the file and returns the first write error, or else the
// error of Close.
func (f *profileFile) close() error {
	err := f.File.Close()
	if f.err != nil {
		return f.err
	}
	return err
}

// RegisterFlags wires the standard profiling flags onto fs.
func (p *Profiler) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&p.CPUProfile, "cpuprofile", "", "write a CPU profile to `file`")
	fs.StringVar(&p.MemProfile, "memprofile", "", "write a heap profile to `file` on exit")
}

// Start begins the configured profiling. It returns a stop function that
// must be called before exit: it stops the CPU profile and writes the heap
// profile, and returns the first error of either, write errors included.
// On error nothing is left running.
func (p *Profiler) Start() (stop func() error, err error) {
	if p.CPUProfile != "" {
		f, err := createProfile(p.CPUProfile)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		p.cpuFile = f
	}
	return p.stop, nil
}

func (p *Profiler) stop() error {
	var err error
	if p.cpuFile != nil {
		// StopCPUProfile returns once the profile's writes are done.
		pprof.StopCPUProfile()
		if cerr := p.cpuFile.close(); cerr != nil {
			err = fmt.Errorf("cpuprofile: %w", cerr)
		}
		p.cpuFile = nil
	}
	if p.MemProfile == "" {
		return err
	}
	if merr := writeHeapProfile(p.MemProfile); err == nil {
		err = merr
	}
	return err
}

func writeHeapProfile(path string) error {
	f, err := createProfile(path)
	if err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	runtime.GC()
	err = pprof.WriteHeapProfile(f)
	if cerr := f.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	return nil
}
