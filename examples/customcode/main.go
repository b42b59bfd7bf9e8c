// Custom code design: run the paper's genetic-algorithm search for a fresh
// SEC-2bEC parity-check matrix, wrap it into an entry-level TrioECC-style
// organization, and evaluate it head-to-head against the shipped
// production code — the workflow a memory-ECC designer would use to
// explore alternatives.
package main

import (
	"fmt"
	"log"

	"hbm2ecc/internal/codesearch"
	"hbm2ecc/internal/core"
	"hbm2ecc/internal/errormodel"
	"hbm2ecc/internal/evalmc"
	"hbm2ecc/internal/gf2"
)

func main() {
	fmt.Println("searching for a fresh SEC-2bEC code (GA, small budget)...")
	res := codesearch.Search(codesearch.Options{Seed: 99, Population: 24, Generations: 12})
	fmt.Printf("found: %d miscorrection collisions (GA improved %.1f%% over best random)\n",
		res.Collisions, res.Improvement()*100)

	// Validate and print it in the paper's Crockford Base32 format.
	if _, err := codesearch.Validate(res.Cols); err != nil {
		log.Fatalf("search produced invalid code: %v", err)
	}
	h, err := gf2.NewH72(res.Cols)
	if err != nil {
		log.Fatal(err)
	}
	text, _ := h.MarshalText()
	fmt.Printf("\nH matrix (Eq. 3 format):\n%s\n\n", text)

	// Wrap it into a full TrioECC-style organization: interleaved, with
	// the correction sanity check and 2b-symbol correction.
	custom := core.NewBinaryFromH("CustomTrio", h, true, true, true)
	shipped := core.NewTrioECC()

	opts := evalmc.Options{Seed: 1, Samples3b: 100_000, SamplesBeat: 100_000,
		SamplesEntry: 100_000, Parallel: true}
	fmt.Println("evaluating both against the Table-1 error model...")
	evals := evalmc.EvaluateAll([]core.Scheme{custom, shipped}, opts)
	cw, sw := evals[0].Weighted(), evals[1].Weighted()

	fmt.Printf("\n%-12s %-12s %-12s %s\n", "scheme", "corrected", "detected", "SDC")
	for _, w := range []evalmc.Weighted{sw, cw} {
		fmt.Printf("%-12s %-12.4f %-12.4f %.6f%%\n", w.Scheme, w.DCE, w.DUE, w.SDC*100)
	}

	// Byte errors must be fully corrected by any valid SEC-2bEC + I + CSC
	// organization — verify the custom code kept the headline property.
	byteRes := evals[0].PerPattern[errormodel.Byte1]
	fmt.Printf("\ncustom code byte errors: %d/%d corrected (must be all)\n",
		byteRes.DCE, byteRes.N)
	if byteRes.DCE != byteRes.N {
		log.Fatal("custom code lost byte correction!")
	}
	fmt.Println("custom organization is a drop-in TrioECC alternative.")
}
