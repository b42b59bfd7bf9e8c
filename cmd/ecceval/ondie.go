package main

import (
	"fmt"
	"os"
	"text/tabwriter"

	"hbm2ecc/internal/hbm2"
	"hbm2ecc/internal/ondie"
)

// ondieTransform resolves -ondie into the stage whose TransformMask is
// installed as the evaluator's error transform.
func ondieTransform(name string) (*ondie.Stage, error) {
	if name == "" {
		return nil, nil
	}
	return ondie.StageByName(name)
}

// runOnDieInfer is the -ondie-infer demo: for every candidate on-die
// code, build a black-box device carrying it and run the BEER-style
// inference engine, reporting whether the exact H-matrix was recovered.
func runOnDieInfer(seed int64) error {
	fmt.Println("== BEER-style on-die ECC reverse engineering ==")
	fmt.Println("crafted all-0s retention patterns + canary parity-subset sweeps")
	fmt.Println()
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "code\t(n,k)\tchunks\texperiments\tcells planted\tvalidated\texact match\twall clock")
	for _, name := range ondie.StageNames() {
		truth, err := ondie.StageByName(name)
		if err != nil {
			return err
		}
		res, match, err := ondie.InferCandidate(name, hbm2.V100(), ondie.InferOptions{Seed: seed})
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintf(w, "%s\t(%d,%d)\t%d\t%d\t%d\t%d\t%v\t%v\n",
			name, truth.Full.K+truth.Full.R, truth.Full.K, truth.Chunks(),
			res.Experiments, res.CellsPlanted, res.Validated, match, res.Elapsed.Round(1e5))
		if !match {
			w.Flush()
			return fmt.Errorf("%s: recovered H does not match ground truth", name)
		}
	}
	return w.Flush()
}

// printOnDieStats reports the stage's decode telemetry accumulated over
// the evaluation — the observed correction/miscorrection split behind
// the distorted breakdown. Every scheme of a pattern column decodes the
// same transformed trials, so the stage sees each distinct trial once,
// not once per scheme: the counts are over distinct trials.
func printOnDieStats(st *ondie.Stage) {
	s := st.Stats()
	total := s.Corrected + s.Miscorrected + s.PassedThrough + s.Undetected
	fmt.Printf("\n== on-die stage %s: decode telemetry over %d erroneous chunks of distinct trials ==\n", st.Name(), total)
	fmt.Printf("corrected %d, miscorrected %d, passed through %d, undetected %d\n",
		s.Corrected, s.Miscorrected, s.PassedThrough, s.Undetected)
}
