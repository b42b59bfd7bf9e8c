// Command ecceval runs the Monte-Carlo/exhaustive ECC evaluation and
// prints Table 2 (per-pattern SDC risk) and Fig. 8 (Table-1-weighted
// outcome probabilities) for all nine schemes.
//
// The evaluation is interruptible: with -checkpoint, every completed
// (scheme, pattern) cell is snapshotted atomically, SIGINT/SIGTERM stops
// the run cleanly (exit 0), and -resume skips the completed cells —
// yielding results identical to an uninterrupted evaluation.
//
// With -workload it runs the workload outcome engine instead, under the
// same checkpoint discipline. A sample budget too large for one sitting
// (the paper's 1e9) is one long run resumed as often as needed.
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
	"hbm2ecc/internal/core"
	"hbm2ecc/internal/errormodel"
	"hbm2ecc/internal/evalmc"
	"hbm2ecc/internal/obs"
	"hbm2ecc/internal/ondie"
)

func main() {
	seed := flag.Int64("seed", 2021, "random seed")
	samples := flag.Int("samples", 400_000, "Monte-Carlo samples per sampled pattern class (paper used 1e7/1e9)")
	withDSC := flag.Bool("dsc", false, "also evaluate the rejected (36,32) DSC organization (slow decoder)")
	checkpoint := flag.String("checkpoint", "",
		"snapshot each completed (scheme, pattern) cell to this file (atomic write)")
	resume := flag.String("resume", "",
		"resume from this checkpoint file (same -seed/-samples required)")
	metrics := flag.String("metrics", "",
		"on exit, print per-phase span durations and dump all metrics in Prometheus text format to this file (\"-\" = stdout)")
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
	for _, f := range []struct {
		name string
		v    int
	}{{"samples", *samples}, {"workload-runs", *wlRuns}} {
		if f.v < 1 {
			fmt.Fprintf(os.Stderr, "ecceval: -%s must be at least 1, got %d\n", f.name, f.v)
			flag.Usage()
			os.Exit(2)
		}
	}

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
		dumpTelemetry(*metrics)
		return
	}

	stage, err := ondieTransform(*ondieCode)
	if err != nil {
		log.Fatal(err)
	}

	names := core.Table2Names()
	if *withDSC {
		names = append(names, "DSC")
	}

	results, err := runLocal(ctx, names, *seed, *samples, *checkpoint, *resume, stage)
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

	dumpTelemetry(*metrics)
}

// dumpTelemetry prints the per-phase span durations and writes every
// metric in Prometheus text format to path ("-" = stdout); an empty path
// does nothing.
func dumpTelemetry(path string) {
	if path == "" {
		return
	}
	fmt.Println("\n== telemetry: per-phase span durations ==")
	if err := obs.DefaultTracer.WritePhaseSummary(os.Stdout); err != nil {
		log.Fatal(err)
	}
	if err := obs.Default.DumpPrometheus(path); err != nil {
		log.Fatalf("writing metrics: %v", err)
	}
	if path != "-" {
		fmt.Printf("metrics written to %s\n", path)
	}
}

// runLocal is the in-process evaluation: pattern columns run in
// parallel through the campaign engine, each drawing its trials once for
// every scheme. The checkpoint still holds (scheme, pattern) cells.
func runLocal(ctx context.Context, names []string, seed int64, samples int, checkpoint, resume string, stage *ondie.Stage) ([]evalmc.SchemeResult, error) {
	schemes := make([]core.Scheme, len(names))
	for i, name := range names {
		s, err := core.SchemeByName(name)
		if err != nil {
			return nil, err
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
	cli, err := campaign.OpenCLI[evalmc.Echo, errormodel.Pattern, evalmc.PatternResult](opts.Echo(), checkpoint, resume)
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
