package main

import (
	"context"
	"os"
	"strings"

	"hbm2ecc/internal/campaign"
	"hbm2ecc/internal/faults"
	"hbm2ecc/internal/workload"
)

// runWorkload drives the workload outcome engine (-workload): the
// scheme x kernel campaign with mid-run fault injection, reported as
// per-kernel outcome tables plus the end-to-end FIT comparison. It
// shares ecceval's checkpoint discipline: -checkpoint snapshots every
// completed cell, SIGINT exits cleanly, -resume skips completed cells
// with byte-identical results.
func runWorkload(ctx context.Context, seed int64, runs int, schemeList, checkpoint, resume string) error {
	opts := workload.Options{Seed: seed, Runs: runs, Parallel: true, Ctx: ctx}
	if schemeList != "" {
		opts.Schemes = strings.Split(schemeList, ",")
		for _, s := range opts.Schemes {
			if _, err := workload.SchemeFor(s); err != nil {
				return err
			}
		}
	}

	cli, err := campaign.OpenCLI[workload.Echo, workload.Kernel, workload.CellResult](opts.Echo(), checkpoint, resume)
	if err != nil {
		return err
	}
	opts.Resume, opts.Progress = cli.Resume, cli.Progress

	results, err := workload.Campaign(opts)
	if err != nil {
		if ctx.Err() != nil {
			cli.Interrupted()
			return nil
		}
		return err
	}
	workload.WriteReport(os.Stdout, results, faults.DefaultSourceFIT)
	return nil
}
