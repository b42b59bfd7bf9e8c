package evalmc

import (
	"fmt"
	"io"

	"hbm2ecc/internal/errormodel"
	"hbm2ecc/internal/textplot"
)

// WriteReport renders the paper-reproduction summary of an evaluation —
// Table 2 (per-pattern SDC risk), the sampled-class confidence
// intervals, the Fig. 8 Table-1-weighted outcome probabilities, and the
// headline reduction ratios — to w. It is the presentation layer of
// cmd/ecceval.
//
// The reduction footers look schemes up by name (SEC-DED baseline,
// DuetECC, TrioECC, I:SSC±CSC) and are skipped when a scheme subset
// omits them.
func WriteReport(w io.Writer, results []SchemeResult) error {
	if len(results) == 0 {
		_, err := fmt.Fprintln(w, "no results")
		return err
	}
	fmt.Fprintln(w, "Table 2: SDC risk per error pattern (C = all corrected, D = no SDC)")
	t2 := textplot.NewTable("scheme", "1 Bit", "1 Pin", "1 Byte", "2 Bits", "3 Bits", "1 Beat", "1 Entry")
	for _, r := range FormatTable2(results) {
		t2.AddRow(r.Scheme, r.Cells[0], r.Cells[1], r.Cells[2], r.Cells[3], r.Cells[4], r.Cells[5], r.Cells[6])
	}
	fmt.Fprintln(w, t2)

	fmt.Fprintln(w, "SDC 95% confidence intervals for sampled classes:")
	ci := textplot.NewTable("scheme", "1 Beat SDC", "1 Entry SDC")
	for _, r := range results {
		beat := r.PerPattern[errormodel.Beat1]
		entry := r.PerPattern[errormodel.Entry1]
		blo, bhi := beat.SDCInterval()
		elo, ehi := entry.SDCInterval()
		ci.AddRow(r.Scheme,
			fmt.Sprintf("%.5f%% [%.5f–%.5f]", beat.FracSDC()*100, blo*100, bhi*100),
			fmt.Sprintf("%.5f%% [%.5f–%.5f]", entry.FracSDC()*100, elo*100, ehi*100))
	}
	fmt.Fprintln(w, ci)

	fmt.Fprintln(w, "Fig. 8: Table-1-weighted outcome probabilities per random event")
	f8 := textplot.NewTable("scheme", "corrected", "detected", "SDC", "SDC reduction vs "+results[0].Scheme)
	base := results[0].Weighted()
	for _, r := range results {
		wt := r.Weighted()
		f8.AddRow(wt.Scheme,
			fmt.Sprintf("%.4f%%", wt.DCE*100),
			fmt.Sprintf("%.4f%%", wt.DUE*100),
			fmt.Sprintf("%.6f%%", wt.SDC*100),
			fmt.Sprintf("%.1f orders of magnitude", SDCReduction(base, wt)))
	}
	fmt.Fprintln(w, f8)

	byName := map[string]SchemeResult{}
	for _, r := range results {
		byName[r.Scheme] = r
	}
	if duet, ok1 := byName["DuetECC"]; ok1 {
		if trio, ok2 := byName["TrioECC"]; ok2 {
			fmt.Fprintf(w, "TrioECC uncorrectable-error (DUE) reduction vs DuetECC: %.2fx (paper: 7.87x)\n\n",
				DUEReduction(duet.Weighted(), trio.Weighted()))
		}
	}

	// CSC ablation (§7.1): the sanity check helps interleaved binary
	// codewords far more than symbol-based correction.
	iSEC, ok1 := byName["I:SEC-DED"]
	duet, ok2 := byName["DuetECC"]
	ssc, ok3 := byName["I:SSC"]
	sscCSC, ok4 := byName["I:SSC+CSC"]
	if ok1 && ok2 && ok3 && ok4 {
		fmt.Fprintln(w, "CSC ablation on whole-entry SDC (paper: 19x for I:SEC-DED, 2.34x for I:SSC):")
		fmt.Fprintf(w, "  I:SEC-DED -> DuetECC:   %s\n",
			reduction(iSEC.PerPattern[errormodel.Entry1], duet.PerPattern[errormodel.Entry1]))
		fmt.Fprintf(w, "  I:SSC     -> I:SSC+CSC: %s\n",
			reduction(ssc.PerPattern[errormodel.Entry1], sscCSC.PerPattern[errormodel.Entry1]))
	}
	return nil
}

// reduction renders an SDC ratio, falling back to a CI-based lower bound
// when the improved scheme saw no SDC at all in its samples.
func reduction(before, after PatternResult) string {
	if after.SDC == 0 {
		_, hi := after.SDCInterval()
		if hi <= 0 {
			return "no SDC in either"
		}
		return fmt.Sprintf(">= %.0fx reduction (no SDC in %d samples)", before.FracSDC()/hi, after.N)
	}
	return fmt.Sprintf("%.2fx reduction", before.FracSDC()/after.FracSDC())
}
