// Command ecceval runs the Monte-Carlo/exhaustive ECC evaluation and
// prints Table 2 (per-pattern SDC risk) and Fig. 8 (Table-1-weighted
// outcome probabilities) for all nine schemes.
//
// With -workload it runs the workload outcome engine instead. Either
// run takes seconds at its defaults (tens of seconds at 1e7 samples
// per class), so an interrupted run is simply rerun.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"hbm2ecc/internal/core"
	"hbm2ecc/internal/evalmc"
	"hbm2ecc/internal/obs"
	"hbm2ecc/internal/ondie"
)

func main() {
	seed := flag.Int64("seed", 2021, "random seed")
	samples := flag.Int("samples", 400_000, "Monte-Carlo samples per sampled pattern class (paper used 1e7/1e9)")
	withDSC := flag.Bool("dsc", false, "also evaluate the rejected (36,32) DSC organization (slow decoder)")
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

	if *ondieInfer {
		if err := runOnDieInfer(*seed); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *wl {
		if err := runWorkload(*seed, *wlRuns, *wlSchemes); err != nil {
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

	results, err := runLocal(names, *seed, *samples, stage)
	if err != nil {
		log.Fatal(err)
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
// every scheme.
func runLocal(names []string, seed int64, samples int, stage *ondie.Stage) ([]evalmc.SchemeResult, error) {
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
		SamplesEntry: samples, Parallel: true,
	}
	if stage != nil {
		opts.ErrTransform = stage.TransformMask
	}
	return evalmc.EvaluateAll(schemes, opts), nil
}
