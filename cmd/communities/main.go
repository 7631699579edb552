// Command communities runs k-clique percolation community detection over a
// contact trace, the same procedure the "selfishness with outsiders"
// experiments use.
//
// Usage:
//
//	communities -preset infocom05
//	communities -trace contacts.txt
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"give2get"
	"give2get/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "communities:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("communities", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		preset    = fs.String("preset", "infocom05", "trace preset (infocom05|cambridge06)")
		tracePath = fs.String("trace", "", "contact trace file, text or binary .g2gt (overrides -preset)")
		seed      = fs.Int64("seed", 42, "generation seed for presets")
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

	var tr *give2get.Trace
	if *tracePath != "" {
		tr, err = give2get.OpenTrace(*tracePath)
		if err != nil {
			return err
		}
	} else {
		tr, err = give2get.GenerateTrace(give2get.Preset(*preset), *seed)
		if err != nil {
			return err
		}
	}

	comms, err := tr.Communities()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s: %d nodes, %d communities\n", tr.Name(), tr.Nodes(), len(comms))
	covered := make(map[int]struct{})
	for i, group := range comms {
		fmt.Fprintf(stdout, "  community %d (%d members): %v\n", i, len(group), group)
		for _, n := range group {
			covered[n] = struct{}{}
		}
	}
	var loners []int
	for n := 0; n < tr.Nodes(); n++ {
		if _, ok := covered[n]; !ok {
			loners = append(loners, n)
		}
	}
	if len(loners) > 0 {
		fmt.Fprintf(stdout, "  outside any community: %v\n", loners)
	}
	return nil
}
