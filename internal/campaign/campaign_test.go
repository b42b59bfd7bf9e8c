package campaign_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"hbm2ecc/internal/campaign"
	"hbm2ecc/internal/errormodel"
	"hbm2ecc/internal/evalmc"
	"hbm2ecc/internal/workload"
)

type echo struct {
	Seed int64 `json:"seed"`
	Runs int   `json:"runs"`
}

func TestCheckpointRoundTripAndEcho(t *testing.T) {
	c := campaign.NewCheckpoint[echo, int, string](echo{Seed: 1, Runs: 5})
	c.Store("a", 3, "a3")
	path := filepath.Join(t.TempDir(), "c.json")
	if err := c.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := campaign.Load[echo, int, string](path)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Compatible(echo{Seed: 1, Runs: 5}); err != nil {
		t.Fatalf("self-compatibility: %v", err)
	}
	if r, ok := loaded.Lookup("a", 3); !ok || r != "a3" {
		t.Fatalf("Lookup(a, 3) = %q, %v", r, ok)
	}
	for _, e := range []echo{{Seed: 2, Runs: 5}, {Seed: 1, Runs: 6}, {}} {
		if err := loaded.Compatible(e); err == nil {
			t.Errorf("echo %+v accepted by a checkpoint taken under %+v", e, loaded.Config)
		}
	}
}

// TestOldFlatFormatRefused loads checkpoints written before the config
// echo moved under "config". They decode, with their cells, but their
// zero echo matches no options, so they are refused rather than resumed
// as if they were empty.
func TestOldFlatFormatRefused(t *testing.T) {
	dir := t.TempDir()

	evalPath := filepath.Join(dir, "eval.json")
	writeFile(t, evalPath, `{"seed":2021,"samples_3b":2000,"samples_beat":2000,"samples_entry":2000,`+
		`"results":{"DuetECC":{"1 Bit":{"Pattern":0,"Exhaustive":true,"N":288,"DCE":288,"DUE":0,"SDC":0}}}}`)
	ec, err := evalmc.LoadCheckpoint(evalPath)
	if err != nil {
		t.Fatal(err)
	}
	opts := evalmc.Options{Seed: 2021, Samples3b: 2000, SamplesBeat: 2000, SamplesEntry: 2000}
	if err := ec.Compatible(opts.Echo()); err == nil {
		t.Error("old flat evalmc checkpoint accepted")
	}
	if _, ok := ec.Lookup("DuetECC", errormodel.Bit1); !ok {
		t.Error("old flat checkpoint decoded without its cells")
	}

	wlPath := filepath.Join(dir, "wl.json")
	writeFile(t, wlPath, `{"seed":4,"runs":30,"source_fit":[1,2,3,4],"results":{}}`)
	wc, err := workload.LoadCheckpoint(wlPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := wc.Compatible(workload.Options{Seed: 4, Runs: 30}.Echo()); err == nil {
		t.Error("old flat workload checkpoint accepted")
	}
}

func writeFile(t *testing.T, path, body string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentStore hammers one checkpoint from many goroutines; under
// -race it proves Store, Lookup, Cells and Save share it safely.
func TestConcurrentStore(t *testing.T) {
	c := campaign.NewCheckpoint[echo, int, string](echo{Seed: 1, Runs: 1})
	path := filepath.Join(t.TempDir(), "c.json")
	const rows, cols = 8, 50
	var wg sync.WaitGroup
	for r := 0; r < rows; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			row := fmt.Sprint("row", r)
			for k := 0; k < cols; k++ {
				c.Store(row, k, fmt.Sprint(r, "/", k))
				if _, ok := c.Lookup(row, k); !ok {
					t.Errorf("cell %s/%d lost", row, k)
				}
				c.Cells()
				if k%10 == 0 {
					if err := c.Save(path); err != nil {
						t.Error(err)
					}
				}
			}
		}(r)
	}
	wg.Wait()
	if n := c.Cells(); n != rows*cols {
		t.Fatalf("%d cells stored, want %d", n, rows*cols)
	}
}

func grid(n int) []campaign.Cell[int] {
	cells := make([]campaign.Cell[int], n)
	for i := range cells {
		cells[i] = campaign.Cell[int]{Row: "r", Col: i}
	}
	return cells
}

// TestCancelledParallelRunWholeCells cancels a parallel run once the
// quick cells are done. Cells still running at cancellation, whether
// they notice it or finish anyway, are dropped: the run returns only the
// whole cells, in spec order, and Progress saw exactly those.
func TestCancelledParallelRunWholeCells(t *testing.T) {
	const n = 12
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var progressed []int
	hooks := campaign.Hooks[int, int]{Progress: func(_ string, col, r int) {
		progressed = append(progressed, col)
		if len(progressed) == n/2 {
			cancel()
		}
	}}
	done, err := campaign.Run(ctx, grid(n), true, hooks, func(i int) (int, error) {
		if i%2 == 0 {
			return i * i, nil
		}
		<-ctx.Done()
		if i%4 == 1 {
			return i * i, nil // finished, but after cancellation
		}
		return 0, ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	var want []campaign.Done[int]
	for i := 0; i < n; i += 2 {
		want = append(want, campaign.Done[int]{Index: i, Result: i * i})
	}
	if !reflect.DeepEqual(done, want) {
		t.Fatalf("completed cells = %+v, want %+v", done, want)
	}
	if len(progressed) != n/2 {
		t.Fatalf("Progress saw %d cells, want %d", len(progressed), n/2)
	}
}

// TestRunSequentialResumeAndFirstError runs in order: resumed cells skip
// eval and Progress, and the first failing cell stops the run.
func TestRunSequentialResumeAndFirstError(t *testing.T) {
	stored := campaign.NewCheckpoint[echo, int, int](echo{Seed: 1, Runs: 1})
	stored.Store("r", 1, 100)
	boom := errors.New("boom")
	var evaluated, progressed []int
	hooks := campaign.Hooks[int, int]{
		Resume:   stored.Lookup,
		Progress: func(_ string, col, _ int) { progressed = append(progressed, col) },
	}
	done, err := campaign.Run(context.Background(), grid(5), false, hooks, func(i int) (int, error) {
		evaluated = append(evaluated, i)
		if i == 3 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	want := []campaign.Done[int]{{Index: 0, Result: 0}, {Index: 1, Result: 100}, {Index: 2, Result: 2}}
	if !reflect.DeepEqual(done, want) {
		t.Fatalf("completed cells = %+v, want %+v", done, want)
	}
	if !reflect.DeepEqual(evaluated, []int{0, 2, 3}) || !reflect.DeepEqual(progressed, []int{0, 2}) {
		t.Fatalf("evaluated %v, progressed %v", evaluated, progressed)
	}
}
