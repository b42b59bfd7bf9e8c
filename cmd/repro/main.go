// Command repro runs the entire reproduction end-to-end and prints a
// paper-vs-measured summary for every table and figure. It is the
// one-stop verification driver behind EXPERIMENTS.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hbm2ecc/internal/core"
	"hbm2ecc/internal/errormodel"
	"hbm2ecc/internal/evalmc"
	"hbm2ecc/internal/experiments"
	"hbm2ecc/internal/hwmodel"
	"hbm2ecc/internal/obs"
	"hbm2ecc/internal/sysrel"
	"hbm2ecc/internal/textplot"
	"hbm2ecc/internal/trends"
)

func main() {
	seed := flag.Int64("seed", 2021, "random seed")
	runs := flag.Int("runs", 300, "campaign microbenchmark runs")
	samples := flag.Int("samples", 400_000, "Monte-Carlo samples per sampled pattern class")
	metrics := flag.String("metrics", "",
		"on exit, print per-phase span durations and dump all metrics in Prometheus text format to this file (\"-\" = stdout)")
	flag.Parse()
	for _, f := range []struct {
		name string
		v    int
	}{{"runs", *runs}, {"samples", *samples}} {
		if f.v < 1 {
			fmt.Fprintf(os.Stderr, "repro: -%s must be at least 1, got %d\n", f.name, f.v)
			flag.Usage()
			os.Exit(2)
		}
	}

	// SIGINT/SIGTERM cancels the long-running stages; repro has no
	// checkpoint (it is a verification driver), so it simply stops early
	// and exits cleanly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	sum := textplot.NewTable("experiment", "quantity", "paper", "measured")

	// ---- Characterization (Figs. 3-5, Table 1) ----
	fmt.Println("== beam campaign ==")
	an := experiments.Campaign(experiments.CampaignConfig{Seed: *seed, Runs: *runs, Ctx: ctx})
	if ctx.Err() != nil {
		fmt.Println("repro: interrupted during the beam campaign; exiting")
		return
	}
	fmt.Printf("%d events, %d damaged entries filtered, %d/%d runs discarded (%.2f%%; paper 0.60%%)\n",
		len(an.Events), len(an.DamagedEntries), an.DiscardedRuns, an.TotalRuns,
		100*float64(an.DiscardedRuns)/float64(an.TotalRuns))

	cb := an.ClassBreakdown()
	sum.AddRow("Fig. 4a", "SBSE fraction", "65% ± 2.3%", pct(cb[0].P))
	sum.AddRow("Fig. 4a", "MBME fraction", "28% ± 2.1%", pct(cb[3].P))
	_, maxBreadth := an.MBMEBreadth()
	sum.AddRow("Fig. 4b", "broadest MBME event", "5,359 entries", fmt.Sprintf("%d entries", maxBreadth))
	sum.AddRow("Fig. 4c", "byte-aligned multi-bit", "74.6% ± 3.8%", pct(an.ByteAlignedFraction().P))
	_, inv, tot := an.SeverityHistogram(true)
	sum.AddRow("Fig. 5", "full-inversion share", "~15%", pct(float64(inv)/float64(max(tot, 1))))
	tab := an.Table1()
	sum.AddRow("Tab. 1", "1 Bit", "73.98%", pct(tab[errormodel.Bit1].P))
	sum.AddRow("Tab. 1", "1 Byte", "22.56%", pct(tab[errormodel.Byte1].P))
	sum.AddRow("Tab. 1", "1 Entry", "2.23%", pct(tab[errormodel.Entry1].P))

	dir := an.IntermittentDirection
	if n := dir.OneToZero + dir.ZeroToOne; n > 0 {
		sum.AddRow("§4", "intermittent 1->0 share", "99.8% ± 0.16%", pct(float64(dir.OneToZero)/float64(n)))
	}

	// ---- Displacement damage (Fig. 3) ----
	fmt.Println("== displacement damage ==")
	dev, _ := experiments.DamagedGPU(*seed + 1)
	sweep, err := experiments.RefreshSweep(dev,
		[]float64{0.008, 0.012, 0.016, 0.024, 0.032, 0.048, 0.064}, *seed+2)
	if err != nil {
		log.Fatal(err)
	}
	sum.AddRow("Fig. 3a", "weak cells @16ms", "~1,000", fmt.Sprintf("%d", sweep.Counts[2]))
	sum.AddRow("Fig. 3b", "retention distribution", "normal fit",
		fmt.Sprintf("Normal(%.1fms, %.1fms)", sweep.FitMu*1000, sweep.FitSigma*1000))
	acc, err := experiments.Accumulation(*seed+3, 30, 60)
	if err != nil {
		log.Fatal(err)
	}
	sum.AddRow("Fig. 3c", "fluence-linearity R²", "0.97", fmt.Sprintf("%.3f", acc.Fit.R2))

	// ---- Trends (Fig. 1) ----
	tr, err := trends.Compute(30, an.MultiBitFraction().P, 8)
	if err != nil {
		log.Fatal(err)
	}
	sum.AddRow("Fig. 1", "SER falls vs capacity growth", "yes",
		fmt.Sprintf("%v (exp %.2f vs %.2f)", tr.SERFallsFasterThanCapacityGrows(), tr.SERFit.B, tr.CapFit.B))

	// ---- ECC evaluation (Table 2, Fig. 8) ----
	fmt.Println("== ECC evaluation ==")
	opts := evalmc.Options{Seed: *seed, Samples3b: *samples, SamplesBeat: *samples,
		SamplesEntry: *samples, Parallel: true, Ctx: ctx}
	schemes := []core.Scheme{
		core.NewSECDED(false, false), core.NewDuetECC(), core.NewTrioECC(),
		core.NewSEC2bEC(false, false), core.NewSSC(true), core.NewSSCDSDPlus(),
	}
	res, err := evalmc.EvaluateAllCtx(schemes, opts)
	if err != nil {
		fmt.Println("repro: interrupted during the ECC evaluation; exiting")
		return
	}
	base := res[0].Weighted()
	duet := res[1].Weighted()
	trio := res[2].Weighted()
	ni2b := res[3].Weighted()
	dsd := res[5].Weighted()
	sum.AddRow("Fig. 8", "SEC-DED corrected", "74%", pct(base.DCE))
	sum.AddRow("Fig. 8", "SEC-DED SDC", "5.4%", pct(base.SDC))
	sum.AddRow("Fig. 8", "DuetECC SDC", "0.0013%", pct(duet.SDC))
	sum.AddRow("Fig. 8", "TrioECC corrected", "97%", pct(trio.DCE))
	sum.AddRow("Fig. 8", "TrioECC SDC", "0.0085%", pct(trio.SDC))
	sum.AddRow("Fig. 8", "NI:SEC-2bEC SDC (regression)", "9.3%", pct(ni2b.SDC))
	sum.AddRow("Abstract", "DuetECC SDC reduction", ">3 orders",
		fmt.Sprintf("%.2f orders", evalmc.SDCReduction(base, duet)))
	sum.AddRow("Abstract", "SSC-DSD+ SDC reduction", "~5 orders",
		fmt.Sprintf("%.2f orders", evalmc.SDCReduction(base, dsd)))
	sum.AddRow("Abstract", "Trio vs Duet DUE reduction", "7.87x",
		fmt.Sprintf("%.2fx", evalmc.DUEReduction(duet, trio)))

	// ---- Hardware (Table 3) ----
	hw := hwmodel.Baseline()
	sum.AddRow("Tab. 3", "SEC-DED encoder", "1176 AND2 / 0.09ns",
		fmt.Sprintf("%d AND2 / %.2fns", hw.Encoder.AreaAND2, hw.Encoder.DelayNS))
	sum.AddRow("Tab. 3", "SEC-DED decoder", "2467 AND2 / 0.20ns",
		fmt.Sprintf("%d AND2 / %.2fns", hw.Decoder.AreaAND2, hw.Decoder.DelayNS))
	for _, r := range hwmodel.All() {
		if r.Name == "TrioECC" && r.Variant == hwmodel.Perf {
			sum.AddRow("§7.2", "TrioECC Perf extra decoder area", "~2500 AND2",
				fmt.Sprintf("%d AND2", r.Decoder.AreaAND2-hw.Decoder.AreaAND2))
		}
	}

	// ---- System level (Fig. 9, §7.3) ----
	gDuet := sysrel.FromWeighted(duet, sysrel.A100MemoryGb)
	gTrio := sysrel.FromWeighted(trio, sysrel.A100MemoryGb)
	gBase := sysrel.FromWeighted(base, sysrel.A100MemoryGb)
	d05 := sysrel.Exascale(gDuet, []float64{0.5, 2}, 0)
	t05 := sysrel.Exascale(gTrio, []float64{0.5, 2}, 0)
	s05 := sysrel.Exascale(gBase, []float64{0.5}, 0)
	sum.AddRow("Fig. 9a", "DuetECC MTTI range", "1.6–6.3 h",
		fmt.Sprintf("%.1f–%.1f h", d05[1].MTTIHours, d05[0].MTTIHours))
	sum.AddRow("Fig. 9a", "TrioECC MTTI range", "9.4–37.6 h",
		fmt.Sprintf("%.1f–%.1f h", t05[1].MTTIHours, t05[0].MTTIHours))
	sum.AddRow("Fig. 9b", "TrioECC MTTF range", "5.7–22.6 mo",
		fmt.Sprintf("%.1f–%.1f mo", sysrel.HoursToMonths(t05[1].MTTFHours), sysrel.HoursToMonths(t05[0].MTTFHours)))
	sum.AddRow("§7.3", "SEC-DED SDC @0.5EF", "22.5 h", fmt.Sprintf("%.1f h", s05[0].MTTFHours))
	avB := sysrel.Automotive(gBase)
	avD := sysrel.Automotive(gDuet)
	avT := sysrel.Automotive(gTrio)
	sum.AddRow("§7.3", "SEC-DED HBM2 SDC", "216 FIT", fmt.Sprintf("%.0f FIT", gBase.SDCFIT))
	sum.AddRow("§7.3", "DuetECC HBM2 SDC", "0.045 FIT", fmt.Sprintf("%.3f FIT", gDuet.SDCFIT))
	sum.AddRow("§7.3", "TrioECC HBM2 SDC", "0.29 FIT", fmt.Sprintf("%.3f FIT", gTrio.SDCFIT))
	sum.AddRow("§7.3", "fleet SDC/day (SEC-DED)", "41", fmt.Sprintf("%.0f", avB.SDCPerDay))
	sum.AddRow("§7.3", "days between SDC (DuetECC)", "115", fmt.Sprintf("%.0f", avD.DaysBetweenSDC))
	sum.AddRow("§7.3", "days between SDC (TrioECC)", "18", fmt.Sprintf("%.0f", avT.DaysBetweenSDC))
	sum.AddRow("§7.3", "DuetECC fleet DUE/day", "148", fmt.Sprintf("%.0f", avD.DUEPerDay))

	fmt.Println()
	fmt.Println("================ paper vs measured ================")
	fmt.Println(sum)
	fmt.Printf("total runtime: %s\n", time.Since(start).Round(time.Millisecond))

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

func pct(p float64) string {
	if p < 0.0001 {
		return fmt.Sprintf("%.6f%%", p*100)
	}
	return fmt.Sprintf("%.2f%%", p*100)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
