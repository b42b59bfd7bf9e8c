// Package campaign is the shared cell-campaign engine: a grid of
// independent (row, column) cells, each evaluated from its own
// deterministic seed stream, with cancellation and per-cell progress.
//
// Because no cell's result depends on any other cell, cells may run in
// any order or concurrently, and the merged result is the same. The
// Monte-Carlo evaluator (internal/evalmc) and the workload outcome
// engine (internal/workload) are thin instantiations of it. Beam
// campaigns (internal/experiments) are not: their runs share device,
// beam and clock state. An interrupted campaign of either kind is rerun.
package campaign

import (
	"context"
	"sync"
)

// Cell is one coordinate of a campaign grid.
type Cell[K any] struct {
	Row string
	Col K
}

// Done is one completed cell: its index into the cells passed to Run
// and its result.
type Done[R any] struct {
	Index  int
	Result R
}

// Run evaluates cells: for each, it calls eval(i), then progress (which
// may be nil). It returns the completed cells in spec order.
//
// With parallel, every cell runs in its own goroutine and reports
// progress from it as it finishes; progress calls never overlap.
// Otherwise cells run one at a time in order and the run stops at the
// first error.
//
// A cell is complete only if it finishes before ctx is cancelled: one
// still running at cancellation is dropped and never passed to
// progress, so progress sees exactly the cells Run returns. Run returns
// the first error in spec order: an evaluation error, or ctx.Err() for
// a cell that cancellation dropped.
func Run[K, R any](ctx context.Context, cells []Cell[K], parallel bool, progress func(row string, col K, r R), eval func(i int) (R, error)) ([]Done[R], error) {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]R, len(cells))
	done := make([]bool, len(cells))
	errs := make([]error, len(cells))
	// progress runs under mu, after a cancellation check, so calls never
	// overlap and a progress call that cancels ctx is the last one: a
	// cell finishing after it sees the cancellation and is dropped.
	var mu sync.Mutex

	one := func(i int) {
		if err := ctx.Err(); err != nil {
			errs[i] = err
			return
		}
		r, err := eval(i)
		if err != nil {
			errs[i] = err
			return
		}
		mu.Lock()
		defer mu.Unlock()
		if err := ctx.Err(); err != nil {
			errs[i] = err
			return
		}
		if progress != nil {
			progress(cells[i].Row, cells[i].Col, r)
		}
		results[i], done[i] = r, true
	}

	var wg sync.WaitGroup
	for i := range cells {
		if !parallel {
			if one(i); errs[i] != nil {
				break
			}
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			one(i)
		}(i)
	}
	wg.Wait()

	var out []Done[R]
	var first error
	for i := range cells {
		if done[i] {
			out = append(out, Done[R]{Index: i, Result: results[i]})
		} else if first == nil {
			first = errs[i]
		}
	}
	return out, first
}
