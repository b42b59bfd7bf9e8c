// Command classify runs a simulated beam campaign and prints the full
// post-processing breakdown: Fig. 4 (classes, breadth, alignment), Fig. 5
// (severity), Table 1 (pattern probabilities), and the intermittent-error
// filtering statistics of §4.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"hbm2ecc/internal/classify"
	"hbm2ecc/internal/errormodel"
	"hbm2ecc/internal/experiments"
	"hbm2ecc/internal/microbench"
	"hbm2ecc/internal/stats"
	"hbm2ecc/internal/textplot"
)

func main() {
	seed := flag.Int64("seed", 2021, "random seed")
	runs := flag.Int("runs", 300, "microbenchmark runs")
	in := flag.String("in", "", "post-process raw logs from this file (written by cmd/beamsim -logs) instead of running a campaign")
	flag.Parse()
	if *runs < 1 {
		fmt.Fprintf(os.Stderr, "classify: -runs must be at least 1, got %d\n", *runs)
		flag.Usage()
		os.Exit(2)
	}

	var an *classify.Analysis
	if *in != "" {
		logs, err := microbench.ReadLogs(*in)
		if err != nil {
			log.Fatal(err)
		}
		an = classify.Analyze(logs, classify.Options{})
	} else {
		an = experiments.Campaign(experiments.CampaignConfig{Seed: *seed, Runs: *runs})
	}
	fmt.Printf("campaign: %d events, %d damaged entries filtered (%d intermittent records), %d/%d runs discarded\n\n",
		len(an.Events), len(an.DamagedEntries), an.IntermittentRecords, an.DiscardedRuns, an.TotalRuns)

	dir := an.IntermittentDirection
	total := dir.OneToZero + dir.ZeroToOne
	if total > 0 {
		fmt.Printf("intermittent error direction: %.2f%% are 1->0 (paper: 99.8%% ± 0.16%%)\n\n",
			100*float64(dir.OneToZero)/float64(total))
	}

	fmt.Println("Fig. 4a: error classes")
	cb := an.ClassBreakdown()
	labels := []string{"SBSE", "SBME", "MBSE", "MBME"}
	vals := make([]float64, 4)
	for c := range cb {
		vals[c] = cb[c].P * 100
	}
	fmt.Print(textplot.Bars(labels, vals, 40))
	fmt.Printf("(paper: SBSE 65%% ± 2.3%%, MBME 28%% ± 2.1%%)\n\n")

	fmt.Println("Fig. 4b: MBME breadth")
	bins, max := an.MBMEBreadth()
	for i, c := range bins.Counts {
		if c > 0 || i < 6 {
			fmt.Printf("  %-18s %d\n", bins.Label(i)+" entries", c)
		}
	}
	fmt.Printf("  broadest: %d entries (paper: 5,359)\n\n", max)

	fmt.Println("Fig. 4c: multi-bit alignment")
	fmt.Printf("  byte-aligned: %v (paper: 74.6%% ± 3.8%%)\n", an.ByteAlignedFraction())
	wa := an.WordsPerEntry(true)
	wn := an.WordsPerEntry(false)
	fmt.Printf("  words/entry byte-aligned:     1w=%d 2w=%d 3w=%d 4w=%d\n", wa[0], wa[1], wa[2], wa[3])
	fmt.Printf("  words/entry non-byte-aligned: 1w=%d 2w=%d 3w=%d 4w=%d\n\n", wn[0], wn[1], wn[2], wn[3])

	fmt.Println("Fig. 5: severity (bits per affected word)")
	for _, aligned := range []bool{true, false} {
		hist, inv, tot := an.SeverityHistogram(aligned)
		name := "byte-aligned"
		maxBits := 8
		if !aligned {
			name = "non-byte-aligned"
			maxBits = 64
		}
		fmt.Printf("  %s (%d observations, %d full inversions):\n", name, tot, inv)
		for n := 2; n <= maxBits; n++ {
			if hist[n] > 0 {
				exp := stats.BinomialPMF(maxBits, n, 0.5)
				fmt.Printf("    %2d bits: %4d (random expectation %.1f%%)\n", n, hist[n], exp*100)
			}
		}
	}
	fmt.Println()

	fmt.Println("Table 1: measured pattern probabilities")
	t := textplot.NewTable("severity", "measured", "95% CI", "paper")
	tab := an.Table1()
	for p := errormodel.Bit1; p < errormodel.NumPatterns; p++ {
		t.AddRow(p.String(),
			fmt.Sprintf("%.2f%%", tab[p].P*100),
			fmt.Sprintf("%.2f–%.2f%%", tab[p].Lo*100, tab[p].Hi*100),
			fmt.Sprintf("%.2f%%", errormodel.Table1[p]*100))
	}
	fmt.Println(t)
}
