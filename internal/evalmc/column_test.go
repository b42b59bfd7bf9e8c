package evalmc

import (
	"sync/atomic"
	"testing"

	"hbm2ecc/internal/bitvec"
	"hbm2ecc/internal/core"
	"hbm2ecc/internal/errormodel"
)

// columnOpts runs the sampled classes on three shards, so every column
// merges several sampler streams.
func columnOpts(tf func(bitvec.V288) bitvec.V288) Options {
	return Options{Seed: 5, Samples3b: 3000, SamplesBeat: 3000, SamplesEntry: 3000,
		Shards: 3, Parallel: true, ErrTransform: tf}
}

// columnTransforms are the two error transforms the column tests run
// under: none, and a pure one that changes every trial.
var columnTransforms = map[string]func(bitvec.V288) bitvec.V288{
	"nil":     nil,
	"flip131": func(e bitvec.V288) bitvec.V288 { return e.FlipBit(131) },
}

// TestColumnMatchesCells is the column's differential lock: every
// (scheme, pattern) result of the column evaluation equals the cell
// evaluated on its own.
func TestColumnMatchesCells(t *testing.T) {
	schemes := core.Table2Schemes()
	for name, tf := range columnTransforms {
		opts := columnOpts(tf)
		res, err := EvaluateAllCtx(schemes, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range schemes {
			for p := errormodel.Bit1; p < errormodel.NumPatterns; p++ {
				cell, err := EvaluateCell(s, p, opts)
				if err != nil {
					t.Fatal(err)
				}
				if got := res[i].PerPattern[p]; got != cell {
					t.Errorf("%s, %s / %s: column %+v, cell %+v", name, s.Name(), p, got, cell)
				}
			}
		}
	}
}

// TestColumnTransformsEachTrialOnce checks that a column draws and
// transforms each trial once for all schemes: run column by column, the
// transform has been called exactly CellTrials(q) times for each column
// q finished so far whenever a cell reports. A column's cells report
// together, in scheme order.
func TestColumnTransformsEachTrialOnce(t *testing.T) {
	schemes := core.Table2Schemes()
	var calls atomic.Int64
	opts := columnOpts(func(e bitvec.V288) bitvec.V288 {
		calls.Add(1)
		return e.FlipBit(131)
	})
	opts.Parallel = false
	var want [errormodel.NumPatterns]int64
	sum := int64(0)
	for p := errormodel.Bit1; p < errormodel.NumPatterns; p++ {
		sum += int64(CellTrials(p, opts))
		want[p] = sum
	}
	reports := 0
	opts.Progress = func(scheme string, p errormodel.Pattern, _ PatternResult) {
		if want := schemes[reports%len(schemes)].Name(); scheme != want {
			t.Errorf("report %d (%s) is for %s, want %s (scheme order within a column)", reports, p, scheme, want)
		}
		reports++
		if got := calls.Load(); got != want[p] {
			t.Errorf("%s / %s reported after %d transform calls, want %d (one per trial of each column)",
				scheme, p, got, want[p])
		}
	}
	if _, err := EvaluateAllCtx(schemes, opts); err != nil {
		t.Fatal(err)
	}
	if n := len(schemes) * int(errormodel.NumPatterns); reports != n {
		t.Fatalf("%d cells reported, want %d", reports, n)
	}
}
