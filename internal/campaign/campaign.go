// Package campaign is the shared cell-campaign engine: a grid of
// independent (row, column) cells, each evaluated from its own
// deterministic seed stream, with resume, progress and an atomic
// on-disk checkpoint.
//
// Because no cell's result depends on any other cell, cells may run in
// any order, concurrently, or across resumes, and the merged result is
// the same. The Monte-Carlo evaluator (internal/evalmc) and the workload
// outcome engine (internal/workload) are thin instantiations of it.
// Beam campaigns (internal/experiments) are not: their runs share
// device, beam and clock state and resume by replay.
package campaign

import (
	"context"
	"fmt"
	"sync"

	"hbm2ecc/internal/resilience"
)

// Checkpoint accumulates the completed cells of one campaign. Config
// echoes every option that shapes a cell's result, so a checkpoint
// taken under one configuration is never resumed under another.
//
// Results are keyed by row name and fmt.Sprint of the column so the
// on-disk JSON stays human-readable. Lookup, Store, Cells and Save are
// safe for concurrent use.
type Checkpoint[E comparable, K, R any] struct {
	Config  E                       `json:"config"`
	Results map[string]map[string]R `json:"results"`

	mu sync.Mutex
}

// NewCheckpoint builds an empty checkpoint valid for the config echo.
func NewCheckpoint[E comparable, K, R any](echo E) *Checkpoint[E, K, R] {
	return &Checkpoint[E, K, R]{Config: echo, Results: map[string]map[string]R{}}
}

// Compatible reports whether the checkpoint was taken under echo.
func (c *Checkpoint[E, K, R]) Compatible(echo E) error {
	if c.Config != echo {
		return fmt.Errorf("campaign: checkpoint config %+v does not match options %+v", c.Config, echo)
	}
	return nil
}

// Lookup returns the stored result of one cell. It has the shape of a
// resume hook.
func (c *Checkpoint[E, K, R]) Lookup(row string, col K) (R, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.Results[row][fmt.Sprint(col)]
	return r, ok
}

// Store records one completed cell. It has the shape of a progress
// hook.
func (c *Checkpoint[E, K, R]) Store(row string, col K, r R) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.Results == nil {
		c.Results = map[string]map[string]R{}
	}
	m := c.Results[row]
	if m == nil {
		m = map[string]R{}
		c.Results[row] = m
	}
	m[fmt.Sprint(col)] = r
}

// Cells returns the number of completed cells.
func (c *Checkpoint[E, K, R]) Cells() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, m := range c.Results {
		n += len(m)
	}
	return n
}

// Save atomically writes the checkpoint to path (write-temp-then-rename).
func (c *Checkpoint[E, K, R]) Save(path string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return resilience.SaveJSON(path, c)
}

// Load reads a checkpoint written by Save. A file in another format
// loads with a zero Config, which Compatible then refuses.
func Load[E comparable, K, R any](path string) (*Checkpoint[E, K, R], error) {
	var c Checkpoint[E, K, R]
	if err := resilience.LoadJSON(path, &c); err != nil {
		return nil, err
	}
	if c.Results == nil {
		c.Results = map[string]map[string]R{}
	}
	return &c, nil
}

// Cell is one coordinate of a campaign grid.
type Cell[K any] struct {
	Row string
	Col K
}

// Hooks are a campaign's checkpoint hooks. Resume, when set, is
// consulted before a cell is evaluated; ok=true reuses the stored
// result. Progress, when set, is called once for each cell evaluated
// (not for resumed ones). Either may be nil.
type Hooks[K, R any] struct {
	Resume   func(row string, col K) (R, bool)
	Progress func(row string, col K, r R)
}

// Done is one completed cell: its index into the cells passed to Run
// and its result.
type Done[R any] struct {
	Index  int
	Result R
}

// Run evaluates cells: for each, it tries h.Resume, then eval(i), then
// h.Progress. It returns the completed cells, resumed or evaluated, in
// spec order.
//
// With parallel, every cell not satisfied by Resume runs in its own
// goroutine and reports Progress from it as it finishes; Progress calls
// never overlap. Otherwise cells run one at a time in order and the run
// stops at the first error.
//
// A cell is complete only if it finishes before ctx is cancelled: one
// still running at cancellation is dropped and never passed to
// Progress, so a checkpoint never holds a cell the caller did not see
// finish. Run returns the first error in spec order: an evaluation
// error, or ctx.Err() for a cell that cancellation dropped.
func Run[K, R any](ctx context.Context, cells []Cell[K], parallel bool, h Hooks[K, R], eval func(i int) (R, error)) ([]Done[R], error) {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]R, len(cells))
	done := make([]bool, len(cells))
	errs := make([]error, len(cells))
	// Progress runs under mu, after a cancellation check, so calls never
	// overlap and a Progress that cancels ctx is the last one: a cell
	// finishing after it sees the cancellation and is dropped.
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
		if h.Progress != nil {
			h.Progress(cells[i].Row, cells[i].Col, r)
		}
		results[i], done[i] = r, true
	}

	var wg sync.WaitGroup
	for i, c := range cells {
		if h.Resume != nil {
			if r, ok := h.Resume(c.Row, c.Col); ok {
				results[i], done[i] = r, true
				continue
			}
		}
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
