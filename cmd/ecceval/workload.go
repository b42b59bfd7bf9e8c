package main

import (
	"os"
	"strings"

	"hbm2ecc/internal/faults"
	"hbm2ecc/internal/workload"
)

// runWorkload drives the workload outcome engine (-workload): the
// scheme x kernel campaign with mid-run fault injection, reported as
// per-kernel outcome tables plus the end-to-end FIT comparison.
func runWorkload(seed int64, runs int, schemeList string) error {
	opts := workload.Options{Seed: seed, Runs: runs, Parallel: true}
	if schemeList != "" {
		opts.Schemes = strings.Split(schemeList, ",")
		for _, s := range opts.Schemes {
			if _, err := workload.SchemeFor(s); err != nil {
				return err
			}
		}
	}
	results, err := workload.Campaign(opts)
	if err != nil {
		return err
	}
	workload.WriteReport(os.Stdout, results, faults.DefaultSourceFIT)
	return nil
}
