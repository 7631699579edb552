package give2get

import (
	"strings"

	"give2get/internal/experiments"
)

func experimentIDs() []string {
	return experiments.IDs()
}

func runExperiment(id string, opts ExperimentOptions) (string, error) {
	tables, err := experiments.Run(id, experiments.Options{
		Quick:         opts.Quick,
		Seed:          opts.Seed,
		Repeats:       opts.Repeats,
		Jobs:          opts.Jobs,
		Audit:         opts.Audit,
		TracePath:     opts.TracePath,
		Context:       opts.Context,
		CheckpointDir: opts.CheckpointDir,
		Resume:        opts.Resume,
	})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for i, tbl := range tables {
		if i > 0 {
			b.WriteByte('\n')
		}
		if err := tbl.Render(&b); err != nil {
			return "", err
		}
	}
	return b.String(), nil
}
