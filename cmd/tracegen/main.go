// Command tracegen generates a synthetic contact trace. Presets write either
// the CRAWDAD-style text format or, when the output file has the .g2gt
// extension, the compact sorted binary format OpenTrace streams.
//
// Usage:
//
//	tracegen -preset infocom05 -seed 42 -out infocom.txt
//	tracegen -preset cambridge06 -out cambridge.g2gt   # binary by extension
//	tracegen -preset cambridge06 -stats                # print stats only
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"give2get"
	"give2get/internal/obs"
	"give2get/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		preset    = fs.String("preset", "infocom05", "trace preset (infocom05|cambridge06)")
		seed      = fs.Int64("seed", 42, "generation seed")
		out       = fs.String("out", "", "output file; a .g2gt extension selects the binary format (default stdout, text)")
		statsOnly = fs.Bool("stats", false, "print statistics instead of the trace")
		ccdf      = fs.Bool("ccdf", false, "print the inter-contact time CCDF instead of the trace")
	)
	var prof obs.Profiler
	prof.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProf, err := prof.Start()
	if err != nil {
		return err
	}
	defer func() {
		if cerr := stopProf(); err == nil {
			err = cerr
		}
	}()

	tr, err := give2get.GenerateTrace(give2get.Preset(*preset), *seed)
	if err != nil {
		return err
	}
	if *statsOnly {
		s, err := tr.Stats()
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "name:               %s\n", tr.Name())
		fmt.Fprintf(stdout, "nodes:              %d\n", s.Nodes)
		fmt.Fprintf(stdout, "contacts:           %d\n", s.Contacts)
		fmt.Fprintf(stdout, "span:               %v\n", s.Span)
		fmt.Fprintf(stdout, "mean contact:       %v\n", s.MeanContact.Round(time.Second))
		fmt.Fprintf(stdout, "mean inter-contact: %v\n", s.MeanInterContact.Round(time.Second))
		comms, err := tr.Communities()
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "communities:        %d %v\n", len(comms), comms)
		return nil
	}

	if *ccdf {
		points, err := tr.InterContactCCDF(40)
		if err != nil {
			return err
		}
		for _, p := range points {
			fmt.Fprintf(stdout, "%.0f %.4f\n", p.T.Seconds(), p.Fraction)
		}
		return nil
	}

	if *out != "" {
		// Atomic publish: a crash or full disk never leaves a torn trace
		// file where a later run would try to read one.
		return trace.WriteFileAtomic(*out, func(w io.Writer) error {
			if strings.HasSuffix(*out, trace.BinaryExt) {
				return tr.WriteBinary(w)
			}
			return tr.Write(w)
		})
	}
	return tr.Write(stdout)
}
