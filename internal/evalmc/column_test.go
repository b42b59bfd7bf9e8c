package evalmc

import (
	"reflect"
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
// q finished so far whenever a cell reports.
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

// TestColumnPartialResume resumes some schemes of one column and every
// scheme of another: the results must equal an uninterrupted run, the
// fully resumed column must not run, and Progress must fire exactly once
// for each other cell, in scheme order within a column.
func TestColumnPartialResume(t *testing.T) {
	schemes := core.Table2Schemes()
	index := map[string]int{}
	for i, s := range schemes {
		index[s.Name()] = i
	}
	stored := func(scheme string, p errormodel.Pattern) bool {
		switch p {
		case errormodel.Pin1:
			return true
		case errormodel.Beat1:
			i := index[scheme]
			return i == 0 || i == 2 || i == 5
		}
		return false
	}
	for name, tf := range columnTransforms {
		opts := columnOpts(tf)
		full, err := EvaluateAllCtx(schemes, opts)
		if err != nil {
			t.Fatal(err)
		}
		ropts := opts
		ropts.Resume = func(scheme string, p errormodel.Pattern) (PatternResult, bool) {
			if !stored(scheme, p) {
				return PatternResult{}, false
			}
			return full[index[scheme]].PerPattern[p], true
		}
		seen := map[errormodel.Pattern][]int{}
		ropts.Progress = func(scheme string, p errormodel.Pattern, _ PatternResult) {
			seen[p] = append(seen[p], index[scheme])
		}
		resumed, err := EvaluateAllCtx(schemes, ropts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(full, resumed) {
			t.Errorf("%s: resumed results differ from uninterrupted:\n%+v\nvs\n%+v", name, full, resumed)
		}
		for p := errormodel.Bit1; p < errormodel.NumPatterns; p++ {
			var want []int
			for i, s := range schemes {
				if !stored(s.Name(), p) {
					want = append(want, i)
				}
			}
			if !reflect.DeepEqual(seen[p], want) {
				t.Errorf("%s / %s: Progress for schemes %v, want %v", name, p, seen[p], want)
			}
		}
	}
}
