package evalmc

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"hbm2ecc/internal/core"
)

// update regenerates the golden master. Run it after an intentional
// change to decoder behavior or evaluator sampling:
//
//	go test ./internal/evalmc -run TestGoldenEvaluation -update
//
// and commit the refreshed testdata/golden_eval.json together with the
// change that explains it.
var update = flag.Bool("update", false, "rewrite golden files instead of comparing")

const (
	goldenSeed    = 2021
	goldenSamples = 20_000
	goldenPath    = "testdata/golden_eval.json"
)

// goldenSchemes is the Table-2 scheme list in row order — the shared
// registry corpus, so the golden master evaluates the grid ecceval
// prints.
func goldenSchemes() []core.Scheme {
	return core.Table2Schemes()
}

// goldenFile is the serialized form of the locked evaluation: the raw
// per-pattern counts plus the derived Table 2 cells and Fig. 8 weighted
// probabilities, so a drift in either the decoders or the presentation
// layer shows up as a diff.
type goldenFile struct {
	Seed     int64          `json:"seed"`
	Samples  int            `json:"samples"`
	Results  []SchemeResult `json:"results"`
	Table2   []Table2Row    `json:"table2"`
	Weighted []Weighted     `json:"weighted"`
}

// TestGoldenEvaluation locks the Table 2 / Fig. 8 outputs at a fixed
// seed and sample count. Every cell draws from its own sampler stream,
// so the sequential and the cell-parallel evaluation must both
// reproduce the same machine-independent golden bytes.
func TestGoldenEvaluation(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		checkGolden(t, parallel)
	}
}

func checkGolden(t *testing.T, parallel bool) {
	t.Helper()
	results := EvaluateAll(goldenSchemes(), Options{
		Seed:         goldenSeed,
		Samples3b:    goldenSamples,
		SamplesBeat:  goldenSamples,
		SamplesEntry: goldenSamples,
		Parallel:     parallel,
	})
	got := goldenFile{Seed: goldenSeed, Samples: goldenSamples, Results: results, Table2: FormatTable2(results)}
	for _, r := range results {
		got.Weighted = append(got.Weighted, r.Weighted())
	}
	raw, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	raw = append(raw, '\n')

	if *update && !parallel {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", goldenPath, len(raw))
		return
	}

	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden master: %v (regenerate with -update)", err)
	}
	if !bytes.Equal(raw, want) {
		var old goldenFile
		if err := json.Unmarshal(want, &old); err == nil {
			for i := range got.Results {
				if i < len(old.Results) {
					for p, pr := range got.Results[i].PerPattern {
						if pr != old.Results[i].PerPattern[p] {
							t.Errorf("%s / %s: got %+v, golden %+v",
								got.Results[i].Scheme, pr.Pattern, pr, old.Results[i].PerPattern[p])
						}
					}
				}
			}
		}
		t.Fatalf("evaluation (Parallel=%v) diverged from %s; if the change is intentional, regenerate with -update", parallel, goldenPath)
	}
}
