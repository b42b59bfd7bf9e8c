// Command ecceval runs the Monte-Carlo/exhaustive ECC evaluation and
// prints Table 2 (per-pattern SDC risk) and Fig. 8 (Table-1-weighted
// outcome probabilities) for all nine schemes.
//
// The evaluation is interruptible: with -checkpoint, every completed
// (scheme, pattern) cell is snapshotted atomically, SIGINT/SIGTERM stops
// the run cleanly (exit 0), and -resume skips the completed cells —
// yielding results identical to an uninterrupted evaluation.
//
// With -workers N the evaluation runs on the distributed campaign
// engine (internal/cluster) in-process: a coordinator served over
// loopback HTTP with N embedded workers speaking the real wire
// protocol. Cell-level determinism makes the merged result bit-identical
// to a sequential run with the same seed and sample counts.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"hbm2ecc/internal/campaign"
	"hbm2ecc/internal/cluster"
	"hbm2ecc/internal/core"
	"hbm2ecc/internal/errormodel"
	"hbm2ecc/internal/evalmc"
	"hbm2ecc/internal/obs"
	"hbm2ecc/internal/ondie"
)

func main() {
	seed := flag.Int64("seed", 2021, "random seed")
	samples := flag.Int("samples", 400_000, "Monte-Carlo samples per sampled pattern class (paper used 1e7/1e9)")
	workers := flag.Int("workers", 0,
		"run on the distributed campaign engine with this many in-process workers (0 = in-process evaluation, same results)")
	withDSC := flag.Bool("dsc", false, "also evaluate the rejected (36,32) DSC organization (slow decoder)")
	checkpoint := flag.String("checkpoint", "",
		"snapshot each completed (scheme, pattern) cell to this file (atomic write)")
	resume := flag.String("resume", "",
		"resume from this checkpoint file (same -seed/-samples required)")
	metrics := flag.String("metrics", "",
		"instrument every scheme's decode path and dump all metrics in Prometheus text format to this file on exit (\"-\" = stdout)")
	wl := flag.Bool("workload", false,
		"run the workload outcome engine instead: GEMM/reduction/DNN kernels over faulted device memory, per-scheme masked/SDC/DUE/crash tables and end-to-end FIT")
	wlRuns := flag.Int("workload-runs", 400, "fault-injection runs per (scheme, kernel) cell with -workload")
	wlSchemes := flag.String("workload-schemes", "",
		"comma-separated scheme list for -workload (\"none\" = ECC off; default none,DuetECC,TrioECC,SSC-DSD+)")
	ondieCode := flag.String("ondie", "",
		"model an on-die ECC stage beneath the rank-level codes: every raw error mask is transformed through the die's silent correct/miscorrect before decode (hamming64, hamming72, hsiao64, sec128)")
	ondieInfer := flag.Bool("ondie-infer", false,
		"run the BEER-style H-matrix reverse-engineering demo against every candidate on-die code and exit")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *ondieInfer {
		if err := runOnDieInfer(*seed); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *wl {
		if err := runWorkload(ctx, *seed, *wlRuns, *wlSchemes, *checkpoint, *resume); err != nil {
			log.Fatal(err)
		}
		return
	}

	stage, err := ondieTransform(*ondieCode)
	if err != nil {
		log.Fatal(err)
	}
	if stage != nil && *workers > 0 {
		log.Fatal("-ondie is not supported with -workers: the cluster wire spec carries no error transform")
	}

	names := core.Table2Names()
	if *withDSC {
		names = append(names, "DSC")
	}

	var results []evalmc.SchemeResult
	if *workers > 0 {
		results, err = runCluster(ctx, names, *workers, *seed, *samples, *checkpoint, *resume)
	} else {
		results, err = runLocal(ctx, names, *seed, *samples, *checkpoint, *resume, *metrics != "", stage)
	}
	if err != nil {
		log.Fatal(err)
	}
	if results == nil {
		return // interrupted; checkpoint messages already printed
	}

	if stage != nil {
		fmt.Printf("on-die ECC stage %s installed: error patterns below are as observed past the die\n\n", stage.Name())
	}
	if err := evalmc.WriteReport(os.Stdout, results); err != nil {
		log.Fatal(err)
	}
	if stage != nil {
		printOnDieStats(stage)
	}

	if *metrics != "" {
		fmt.Println("\n== telemetry: per-phase span durations ==")
		if err := obs.DefaultTracer.WritePhaseSummary(os.Stdout); err != nil {
			log.Fatal(err)
		}
		if err := obs.Default.DumpPrometheus(*metrics); err != nil {
			log.Fatalf("writing metrics: %v", err)
		}
		if *metrics != "-" {
			fmt.Printf("metrics written to %s\n", *metrics)
		}
	}
}

// runLocal is the in-process evaluation: pattern columns run in
// parallel through the campaign engine, each drawing its trials once for
// every scheme. The checkpoint still holds (scheme, pattern) cells.
func runLocal(ctx context.Context, names []string, seed int64, samples int, checkpoint, resume string, instrument bool, stage *ondie.Stage) ([]evalmc.SchemeResult, error) {
	schemes := make([]core.Scheme, len(names))
	for i, name := range names {
		s, err := core.SchemeByName(name)
		if err != nil {
			return nil, err
		}
		if instrument {
			s = core.Instrumented(s)
		}
		schemes[i] = s
	}
	opts := evalmc.Options{
		Seed: seed, Samples3b: samples, SamplesBeat: samples,
		SamplesEntry: samples, Parallel: true, Ctx: ctx,
	}
	if stage != nil {
		opts.ErrTransform = stage.TransformMask
		opts.OnDie = stage.Name()
	}
	cli, err := openCheckpoint(opts, checkpoint, resume)
	if err != nil {
		return nil, err
	}
	opts.Resume, opts.Progress = cli.Resume, cli.Progress
	results, err := evalmc.EvaluateAllCtx(schemes, opts)
	if err != nil {
		cli.Interrupted()
		return nil, nil
	}
	return results, nil
}

// openCheckpoint wires -checkpoint/-resume to an evalmc checkpoint. The
// local and -workers paths share the file format and the echo, so a
// checkpoint written by either one resumes in the other.
func openCheckpoint(opts evalmc.Options, checkpoint, resume string) (*campaign.CLI[evalmc.Echo, errormodel.Pattern, evalmc.PatternResult], error) {
	return campaign.OpenCLI(opts.Echo(), checkpoint, resume, evalmc.LoadCheckpoint, (*evalmc.Checkpoint).Save)
}

// runCluster evaluates on the distributed campaign engine over loopback
// HTTP. Shards is pinned to 1, the local path's one stream per cell, so
// the result is bit-identical to a run without -workers regardless of
// worker count.
func runCluster(ctx context.Context, names []string, workers int, seed int64, samples int, checkpoint, resume string) ([]evalmc.SchemeResult, error) {
	spec := cluster.Spec{
		Schemes:      names,
		Seed:         seed,
		Samples3b:    samples,
		SamplesBeat:  samples,
		SamplesEntry: samples,
		Shards:       1,
	}
	cli, err := openCheckpoint(spec.Options(), checkpoint, resume)
	if err != nil {
		return nil, err
	}
	copts := cluster.CoordinatorOptions{Spec: spec, Resume: cli.Resume, Progress: cli.Progress}
	results, coord, err := cluster.RunLocal(ctx, copts, workers, cluster.WorkerOptions{ID: "ecceval"})
	if err != nil {
		if ctx.Err() != nil {
			cli.Interrupted()
			return nil, nil
		}
		return nil, err
	}
	st := coord.Status()
	fmt.Printf("Distributed campaign: %d cells over %d workers (%d re-queued, %d resumed from checkpoint).\n",
		st.Total, workers, st.Requeues, st.Done-completedByWorkers(st))
	return results, nil
}

func completedByWorkers(st cluster.StatusResponse) int {
	n := 0
	for _, w := range st.Workers {
		n += w.Completed
	}
	return n
}
