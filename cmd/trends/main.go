// Command trends prints Fig. 1: the historical DRAM soft-error-rate and
// capacity regressions with the measured HBM2 overlay.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"hbm2ecc/internal/experiments"
	"hbm2ecc/internal/textplot"
	"hbm2ecc/internal/trends"
)

func main() {
	seed := flag.Int64("seed", 2021, "random seed")
	runs := flag.Int("runs", 150, "campaign runs used to measure the HBM2 point")
	flag.Parse()
	if *runs < 1 {
		fmt.Fprintf(os.Stderr, "trends: -runs must be at least 1, got %d\n", *runs)
		flag.Usage()
		os.Exit(2)
	}

	an := experiments.Campaign(experiments.CampaignConfig{Seed: *seed, Runs: *runs})
	// The campaign runs at an accelerated in-simulation event rate; the
	// physical beamline MTTE (~30s, the default beam.Config rate) sets
	// the absolute scale of the overlay, while the campaign supplies the
	// measured multi-bit share.
	res, err := trends.Compute(30, an.MultiBitFraction().P, 8)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Fig. 1: historical neutron-beam DRAM SER vs capacity, with HBM2 overlay")
	t := textplot.NewTable("generation", "year", "SER FIT/chip", "capacity Mb")
	for _, p := range res.Points {
		t.AddRow(p.Generation, p.Year, p.SERPerChip, p.CapacityMb)
	}
	fmt.Println(t)
	fmt.Printf("SER regression:      %.1f × e^(%.3f·gen), R²=%.3f (halves every %.1f generations)\n",
		res.SERFit.A, res.SERFit.B, res.SERFit.R2, res.SERFit.HalvingInterval())
	fmt.Printf("capacity regression: %.1f × e^(%.3f·gen), R²=%.3f (doubles every %.1f generations)\n",
		res.CapFit.A, res.CapFit.B, res.CapFit.R2, res.CapFit.HalvingInterval())
	fmt.Printf("HBM2 (measured):     %.1f FIT/chip overall, %.1f FIT/chip multi-bit\n",
		res.HBM2SER, res.HBM2MultiBitSER)
	fmt.Printf("non-bitcell band:    %v FIT/chip (Borucki)\n", trends.NonBitcellBand)
	if res.SERFallsFasterThanCapacityGrows() {
		fmt.Println("=> per-chip SER falls while capacity grows, and the HBM2 point continues the trend.")
	}
}
