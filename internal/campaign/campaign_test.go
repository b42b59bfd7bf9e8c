package campaign_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"hbm2ecc/internal/campaign"
)

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
// whole cells, in spec order, and progress saw exactly those.
func TestCancelledParallelRunWholeCells(t *testing.T) {
	const n = 12
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var progressed []int
	progress := func(_ string, col, r int) {
		progressed = append(progressed, col)
		if len(progressed) == n/2 {
			cancel()
		}
	}
	done, err := campaign.Run(ctx, grid(n), true, progress, func(i int) (int, error) {
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
		t.Fatalf("progress saw %d cells, want %d", len(progressed), n/2)
	}
}

// TestRunSequentialFirstError runs in order: the first failing cell
// stops the run, is never passed to progress, and its error is returned.
func TestRunSequentialFirstError(t *testing.T) {
	boom := errors.New("boom")
	var evaluated, progressed []int
	progress := func(_ string, col, _ int) { progressed = append(progressed, col) }
	done, err := campaign.Run(context.Background(), grid(5), false, progress, func(i int) (int, error) {
		evaluated = append(evaluated, i)
		if i == 3 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	want := []campaign.Done[int]{{Index: 0, Result: 0}, {Index: 1, Result: 1}, {Index: 2, Result: 2}}
	if !reflect.DeepEqual(done, want) {
		t.Fatalf("completed cells = %+v, want %+v", done, want)
	}
	if !reflect.DeepEqual(evaluated, []int{0, 1, 2, 3}) || !reflect.DeepEqual(progressed, []int{0, 1, 2}) {
		t.Fatalf("evaluated %v, progressed %v", evaluated, progressed)
	}
}
