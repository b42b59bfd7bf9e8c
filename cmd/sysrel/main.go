// Command sysrel evaluates the schemes and prints the system-level
// reliability analyses: Fig. 9 (exascale MTTI/MTTF) and the §7.3
// autonomous-vehicle ISO 26262 study.
package main

import (
	"flag"
	"fmt"
	"os"

	"hbm2ecc/internal/core"
	"hbm2ecc/internal/evalmc"
	"hbm2ecc/internal/fieldsim"
	"hbm2ecc/internal/sysrel"
	"hbm2ecc/internal/textplot"
)

func main() {
	seed := flag.Int64("seed", 2021, "random seed")
	samples := flag.Int("samples", 400_000, "Monte-Carlo samples per sampled pattern class")
	flag.Parse()
	if *samples < 1 {
		fmt.Fprintf(os.Stderr, "sysrel: -samples must be at least 1, got %d\n", *samples)
		flag.Usage()
		os.Exit(2)
	}

	opts := evalmc.Options{Seed: *seed, Samples3b: *samples, SamplesBeat: *samples,
		SamplesEntry: *samples, Parallel: true}
	schemes := []core.Scheme{
		core.NewSECDED(false, false),
		core.NewDuetECC(),
		core.NewTrioECC(),
		core.NewSSCDSDPlus(),
	}
	var fits []sysrel.GPUFIT
	for _, r := range evalmc.EvaluateAll(schemes, opts) {
		fits = append(fits, sysrel.FromWeighted(r.Weighted(), sysrel.A100MemoryGb))
	}

	fmt.Println("Per-GPU FIT rates (12.51 FIT/Gb raw, 40GB HBM2)")
	t := textplot.NewTable("scheme", "raw FIT", "DUE FIT", "SDC FIT", "ISO 26262 (<=10 FIT SDC)")
	for _, g := range fits {
		t.AddRow(g.Scheme, fmt.Sprintf("%.0f", g.RawFIT), fmt.Sprintf("%.2f", g.DUEFIT),
			fmt.Sprintf("%.4f", g.SDCFIT), fmt.Sprintf("%v", g.MeetsISO26262()))
	}
	fmt.Println(t)

	fmt.Println("Fig. 9: exascale supercomputer (paper: Duet DUE 1.6–6.3h, Trio DUE 9.4–37.6h,")
	fmt.Println("Trio MTTF 5.7–22.6 months, Duet MTTF in years, SEC-DED SDC every 22.5h at 0.5EF)")
	sizes := []float64{0.5, 1, 2}
	f9 := textplot.NewTable("scheme", "0.5 EF MTTI", "2 EF MTTI", "0.5 EF MTTF", "2 EF MTTF")
	for _, g := range fits {
		pts := sysrel.Exascale(g, sizes, 0)
		f9.AddRow(g.Scheme,
			fmt.Sprintf("%.1f h", pts[0].MTTIHours),
			fmt.Sprintf("%.1f h", pts[2].MTTIHours),
			fmtMTTF(pts[0].MTTFHours),
			fmtMTTF(pts[2].MTTFHours))
	}
	fmt.Println(f9)

	fmt.Println("§7.3: US autonomous-vehicle fleet (225.8M drivers × 51 min/day, one GPU per car)")
	av := textplot.NewTable("scheme", "fleet SDC/day", "days between SDC", "fleet DUE recoveries/day")
	for _, g := range fits {
		r := sysrel.Automotive(g)
		av.AddRow(r.Scheme, fmt.Sprintf("%.3f", r.SDCPerDay),
			fmt.Sprintf("%.0f", r.DaysBetweenSDC), fmt.Sprintf("%.0f", r.DUEPerDay))
	}
	fmt.Println(av)

	fmt.Println("Monte-Carlo field-simulation cross-check (0.5 EF fleet, 720h wall time):")
	for i, s := range schemes[1:3] { // DuetECC, TrioECC
		sim := fieldsim.Simulate(fieldsim.Config{
			Scheme: s,
			GPUs:   0.5 * sysrel.DefaultGPUsPerExaflop,
			Hours:  720,
			Seed:   *seed + int64(i),
		})
		analytic := sysrel.Exascale(fits[i+1], []float64{0.5}, 0)[0]
		fmt.Printf("  %-8s empirical MTTI %.1fh vs analytical %.1fh (%d events)\n",
			sim.Scheme, sim.MTTIHours(), analytic.MTTIHours, sim.Events)
	}
}

func fmtMTTF(h float64) string {
	switch {
	case h == 0:
		return "-"
	case h > 2*sysrel.HoursPerYear:
		return fmt.Sprintf("%.1f yr", sysrel.HoursToYears(h))
	case h > 1500:
		return fmt.Sprintf("%.1f mo", sysrel.HoursToMonths(h))
	default:
		return fmt.Sprintf("%.1f h", h)
	}
}
