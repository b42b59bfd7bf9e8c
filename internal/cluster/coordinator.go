package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"hbm2ecc/internal/errormodel"
	"hbm2ecc/internal/evalmc"
	"hbm2ecc/internal/httpx"
	"hbm2ecc/internal/obs"
	"hbm2ecc/internal/resilience"
)

// Cluster telemetry, exposed by any /metrics surface sharing the obs
// Default registry (campaignd serves its own).
var (
	mQueueDepth = obs.NewGauge("cluster_queue_depth",
		"Cells waiting to be leased.").With()
	mLeasedCells = obs.NewGauge("cluster_cells_leased",
		"Cells currently leased to workers.").With()
	mDoneCells = obs.NewGauge("cluster_cells_done",
		"Cells completed and merged.").With()
	mOldestLease = obs.NewGauge("cluster_oldest_lease_age_seconds",
		"Age of the oldest outstanding lease.").With()
	mLeasesGranted = obs.NewCounter("cluster_leases_granted_total",
		"Cell leases granted to workers.").With()
	mRequeues = obs.NewCounter("cluster_requeues_total",
		"Cells re-queued after lease expiry.").With()
	mEvictions = obs.NewCounter("cluster_worker_evictions_total",
		"Workers evicted after exhausting their failure budget.").With()
	mConflicts = obs.NewCounter("cluster_result_conflicts_total",
		"Duplicate completions whose results disagreed (kept the first).").With()
	mDuplicates = obs.NewCounter("cluster_duplicate_completions_total",
		"Completions for already-finished cells (bit-identical, dropped).").With()
	mClusterWorkerRate = obs.NewGauge("cluster_worker_trials_per_sec",
		"Lifetime per-worker evaluation throughput seen by the coordinator.", "worker")
	mResumedClusterCells = obs.NewCounter("cluster_resumed_cells_total",
		"Cells satisfied from a coordinator checkpoint instead of leased.").With()
)

// Cell lifecycle states.
const (
	statePending = iota
	stateLeased
	stateDone
)

// CoordinatorOptions configures a campaign coordinator.
type CoordinatorOptions struct {
	// Spec is the campaign to run. Required, must validate.
	Spec Spec
	// LeaseTTL is how long a worker holds a cell before it is re-queued
	// (default 2m).
	LeaseTTL time.Duration
	// SweepEvery is the requeue scan interval of Run (default
	// LeaseTTL/4; sweeps also happen opportunistically on every lease
	// request).
	SweepEvery time.Duration
	// FailureBudget is the number of lease failures (expiries or
	// invalid results) a worker may accumulate before eviction
	// (default 8). Reuses the resilience DUE-budget pattern.
	FailureBudget int
	// BackoffBase and BackoffMax bound the per-worker requeue backoff
	// window (defaults 250ms and 30s), with deterministic jitter from
	// the spec seed via resilience.RetryPolicy.
	BackoffBase, BackoffMax time.Duration
	// MaxCellAttempts fails the campaign once any single cell has been
	// re-queued this many times (default 32) — the backstop against a
	// cell that crashes every worker that touches it.
	MaxCellAttempts int
	// Resume, when set, is consulted once per cell at construction;
	// ok=true marks the cell done with the cached result (the
	// evalmc.Checkpoint.Lookup signature, same as Options.Resume).
	Resume func(scheme string, p errormodel.Pattern) (evalmc.PatternResult, bool)
	// Progress, when set, is called under the coordinator lock after
	// each cell completes (the evalmc.Checkpoint.Store + Save hook). It
	// must not call back into the coordinator.
	Progress func(scheme string, p errormodel.Pattern, r evalmc.PatternResult)
	// Clock overrides time.Now for tests.
	Clock func() time.Time
}

func (o *CoordinatorOptions) defaults() {
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 2 * time.Minute
	}
	if o.SweepEvery <= 0 {
		o.SweepEvery = o.LeaseTTL / 4
	}
	if o.FailureBudget <= 0 {
		o.FailureBudget = 8
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 250 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 30 * time.Second
	}
	if o.MaxCellAttempts <= 0 {
		o.MaxCellAttempts = 32
	}
	if o.Clock == nil {
		o.Clock = time.Now
	}
}

type cellState struct {
	cell Cell
	// cost is the cell's trial count, the scheduling weight: pending
	// cells lease in descending cost order (LPT), which keeps worker
	// busy times balanced and the 4-worker makespan near total/4.
	cost     int64
	state    int
	attempts int
	leaseID  string
	worker   string
	granted  time.Time
	expires  time.Time
	result   evalmc.PatternResult
	elapsed  int64
}

type workerState struct {
	id string
	// guard spends the failure budget; exhaustion evicts the worker —
	// the same cumulative-budget degrade pattern the device model uses
	// for DUEs.
	guard *resilience.DegradeGuard
	// backoff issues the post-failure cool-down delays with
	// deterministic jitter.
	backoff      *resilience.RetryPolicy
	consecFails  int
	backoffUntil time.Time
	// leaseSeq and lastLease are the worker's last numbered lease
	// request and the answer it got, replayed on redelivery.
	leaseSeq  uint64
	lastLease LeaseResponse
	evicted   bool
	completed int
	trials    int64
	busyNS    int64
}

// Coordinator owns a campaign's cell grid and the lease state machine.
// All exported methods are safe for concurrent use.
type Coordinator struct {
	opts CoordinatorOptions

	mu        sync.Mutex
	cells     []cellState
	pending   int
	leased    int
	completed int
	workers   map[string]*workerState
	leaseSeq  uint64
	requeues  uint64
	conflicts uint64
	evictions uint64
	failure   error // sticky campaign failure (poisoned cell)
	done      chan struct{}
	closed    bool
}

// NewCoordinator builds a coordinator for opts.Spec, consulting the
// Resume hook for already-completed cells.
func NewCoordinator(opts CoordinatorOptions) (*Coordinator, error) {
	opts.defaults()
	if err := opts.Spec.Validate(); err != nil {
		return nil, err
	}
	evalOpts := opts.Spec.Options()
	c := &Coordinator{
		opts:    opts,
		cells:   make([]cellState, opts.Spec.NumCells()),
		workers: map[string]*workerState{},
		done:    make(chan struct{}),
	}
	for id := range c.cells {
		cell, err := opts.Spec.Cell(id)
		if err != nil {
			return nil, err
		}
		cs := &c.cells[id]
		cs.cell = cell
		cs.cost = int64(evalmc.CellTrials(cell.PatternP(), evalOpts))
		cs.state = statePending
		if opts.Resume != nil {
			if r, ok := opts.Resume(cell.Scheme, cell.PatternP()); ok {
				cs.state = stateDone
				cs.result = r
				c.completed++
				mResumedClusterCells.Inc()
				continue
			}
		}
		c.pending++
	}
	if c.completed == len(c.cells) {
		c.closed = true
		close(c.done)
	}
	c.publishGauges()
	return c, nil
}

// Spec returns the campaign spec.
func (c *Coordinator) Spec() Spec { return c.opts.Spec }

// Done is closed when every cell is complete or the campaign fails.
func (c *Coordinator) Done() <-chan struct{} { return c.done }

// Err returns the sticky campaign failure, if any.
func (c *Coordinator) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failure
}

func (c *Coordinator) workerFor(id string) *workerState {
	w := c.workers[id]
	if w == nil {
		w = &workerState{
			id:    id,
			guard: resilience.NewDegradeGuard(c.opts.FailureBudget),
			backoff: resilience.NewRetryPolicy(
				c.opts.FailureBudget+1,
				c.opts.BackoffBase.Seconds(),
				c.opts.BackoffMax.Seconds(),
				c.opts.Spec.Seed^int64(len(c.workers))),
		}
		c.workers[id] = w
	}
	return w
}

// Lease grants up to req.MaxCells pending cells to the worker.
func (c *Coordinator) Lease(req LeaseRequest) LeaseResponse {
	if err := req.Validate(); err != nil {
		return LeaseResponse{Version: ProtocolVersion, Wait: true, RetryMS: 1000}
	}
	now := c.opts.Clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweepLocked(now)

	if c.closed {
		return LeaseResponse{Version: ProtocolVersion, Done: true}
	}
	w := c.workerFor(req.WorkerID)
	if req.Seq != 0 && req.Seq == w.leaseSeq {
		// Granting again would lease cells to a worker that never sees
		// them, and their expiry would spend its failure budget.
		return w.lastLease
	}
	resp := c.grantLocked(w, req, now)
	w.leaseSeq, w.lastLease = req.Seq, resp
	return resp
}

// grantLocked answers one lease request: eviction, backoff, up to
// req.MaxCells of the heaviest pending cells, or a wait.
func (c *Coordinator) grantLocked(w *workerState, req LeaseRequest, now time.Time) LeaseResponse {
	resp := LeaseResponse{Version: ProtocolVersion}
	if w.evicted {
		resp.Evicted = true
		return resp
	}
	if now.Before(w.backoffUntil) {
		resp.Wait = true
		resp.RetryMS = int64(w.backoffUntil.Sub(now) / time.Millisecond)
		if resp.RetryMS < 1 {
			resp.RetryMS = 1
		}
		return resp
	}
	want := req.MaxCells
	if want <= 0 {
		want = 1
	}
	// Lease the heaviest pending cells first (LPT): stable under the
	// deterministic cost model, so assignment is reproducible given the
	// same arrival order.
	type candidate struct {
		id   int
		cost int64
	}
	var cand []candidate
	for id := range c.cells {
		if c.cells[id].state == statePending {
			cand = append(cand, candidate{id, c.cells[id].cost})
		}
	}
	sort.Slice(cand, func(i, j int) bool {
		if cand[i].cost != cand[j].cost {
			return cand[i].cost > cand[j].cost
		}
		return cand[i].id < cand[j].id
	})
	if len(cand) > want {
		cand = cand[:want]
	}
	for _, cn := range cand {
		cs := &c.cells[cn.id]
		c.leaseSeq++
		cs.state = stateLeased
		cs.leaseID = fmt.Sprintf("L%d", c.leaseSeq)
		cs.worker = req.WorkerID
		cs.granted = now
		cs.expires = now.Add(c.opts.LeaseTTL)
		c.pending--
		c.leased++
		mLeasesGranted.Inc()
		resp.Leases = append(resp.Leases, Lease{
			ID:    cs.leaseID,
			Cell:  cs.cell,
			TTLMS: int64(c.opts.LeaseTTL / time.Millisecond),
		})
	}
	if len(resp.Leases) > 0 {
		spec := c.opts.Spec
		resp.Spec = &spec
	} else {
		resp.Wait = true
		resp.RetryMS = int64(c.opts.SweepEvery / time.Millisecond / 2)
		if resp.RetryMS < 10 {
			resp.RetryMS = 10
		}
	}
	c.publishGauges()
	return resp
}

// Complete records one finished cell, resolving duplicates and stale
// leases idempotently: a deterministic cell completed twice must carry
// identical counts, so equality accepts and disagreement keeps the
// first result while counting a conflict.
func (c *Coordinator) Complete(req CompleteRequest) (CompleteResponse, error) {
	if err := req.Validate(); err != nil {
		return CompleteResponse{}, err
	}
	if err := req.Cell.Validate(&c.opts.Spec); err != nil {
		return CompleteResponse{}, err
	}
	now := c.opts.Clock()
	c.mu.Lock()
	defer c.mu.Unlock()

	w := c.workerFor(req.WorkerID)
	cs := &c.cells[req.Cell.ID]

	// The expected trial total is known from the spec; a mismatch means
	// a broken or malicious worker, never a legitimate result.
	if int64(req.Result.N) != cs.cost {
		c.recordWorkerFailureLocked(w, now)
		return CompleteResponse{}, fmt.Errorf(
			"cluster: cell %d completed with N=%d, want %d", req.Cell.ID, req.Result.N, cs.cost)
	}
	wantExhaustive := errormodel.EnumerableCount(cs.cell.PatternP()) >= 0
	if req.Result.Exhaustive != wantExhaustive {
		c.recordWorkerFailureLocked(w, now)
		return CompleteResponse{}, fmt.Errorf(
			"cluster: cell %d exhaustive=%v, want %v", req.Cell.ID, req.Result.Exhaustive, wantExhaustive)
	}

	resp := CompleteResponse{}
	switch cs.state {
	case stateDone:
		resp.Duplicate = true
		if cs.result == req.Result {
			resp.Accepted = true
			mDuplicates.Inc()
		} else {
			c.conflicts++
			mConflicts.Inc()
		}
	case stateLeased, statePending:
		// A stale lease (expired and re-queued, or re-leased to another
		// worker) still carries a valid deterministic result — accept
		// it and let the superseding lease resolve as a duplicate.
		stale := cs.state == statePending || cs.leaseID != req.LeaseID
		resp.Stale = stale
		c.completeCellLocked(cs, req.Result, req.ElapsedNS, now)
		resp.Accepted = true
		w.consecFails = 0
		w.completed++
		w.trials += int64(req.Result.N)
		if req.ElapsedNS > 0 {
			w.busyNS += req.ElapsedNS
			mClusterWorkerRate.With(w.id).Set(float64(w.trials) / (float64(w.busyNS) / 1e9))
		}
	}
	resp.Done = c.closed
	c.publishGauges()
	return resp, nil
}

// completeCellLocked transitions a cell to done and fires the progress
// hook; closes the campaign when it was the last one.
func (c *Coordinator) completeCellLocked(cs *cellState, r evalmc.PatternResult, elapsedNS int64, now time.Time) {
	if cs.state == stateLeased {
		c.leased--
	} else {
		c.pending--
	}
	cs.state = stateDone
	cs.result = r
	cs.elapsed = elapsedNS
	cs.leaseID = ""
	c.completed++
	if c.opts.Progress != nil {
		c.opts.Progress(cs.cell.Scheme, cs.cell.PatternP(), r)
	}
	if c.completed == len(c.cells) && !c.closed {
		c.closed = true
		close(c.done)
	}
}

// Sweep re-queues expired leases and applies worker failure accounting.
// Run calls it periodically; Lease calls it opportunistically.
func (c *Coordinator) Sweep() {
	now := c.opts.Clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweepLocked(now)
	c.publishGauges()
}

func (c *Coordinator) sweepLocked(now time.Time) {
	for id := range c.cells {
		cs := &c.cells[id]
		if cs.state != stateLeased || now.Before(cs.expires) {
			continue
		}
		// Lease expired: the worker died, stalled, or lost connectivity.
		cs.state = statePending
		cs.leaseID = ""
		cs.attempts++
		c.leased--
		c.pending++
		c.requeues++
		mRequeues.Inc()
		if w := c.workers[cs.worker]; w != nil {
			c.recordWorkerFailureLocked(w, now)
		}
		cs.worker = ""
		if cs.attempts >= c.opts.MaxCellAttempts && c.failure == nil {
			c.failure = fmt.Errorf("cluster: cell %d (%s / %s) re-queued %d times; campaign failed",
				cs.cell.ID, cs.cell.Scheme, cs.cell.PatternP(), cs.attempts)
			if !c.closed {
				c.closed = true
				close(c.done)
			}
		}
	}
}

// recordWorkerFailureLocked charges one failure to the worker: backoff
// with deterministic jitter now, eviction once the budget is spent.
func (c *Coordinator) recordWorkerFailureLocked(w *workerState, now time.Time) {
	if w.evicted {
		return
	}
	w.consecFails++
	if delay, ok := w.backoff.NextDelay(w.consecFails); ok {
		w.backoffUntil = now.Add(time.Duration(delay * float64(time.Second)))
	}
	if w.guard.RecordDUE() {
		w.evicted = true
		c.evictions++
		mEvictions.Inc()
	}
}

// Run sweeps expired leases until the campaign completes or ctx is
// cancelled. The coordinator still works without Run — Lease sweeps
// opportunistically — but Run bounds requeue latency when no worker is
// polling.
func (c *Coordinator) Run(ctx context.Context) {
	ticker := time.NewTicker(c.opts.SweepEvery)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-c.done:
			return
		case <-ticker.C:
			c.Sweep()
		}
	}
}

func (c *Coordinator) publishGauges() {
	mQueueDepth.Set(float64(c.pending))
	mLeasedCells.Set(float64(c.leased))
	mDoneCells.Set(float64(c.completed))
	mOldestLease.Set(c.oldestLeaseLocked(c.opts.Clock()).Seconds())
}

func (c *Coordinator) oldestLeaseLocked(now time.Time) time.Duration {
	var oldest time.Duration
	for id := range c.cells {
		if c.cells[id].state == stateLeased {
			if age := now.Sub(c.cells[id].granted); age > oldest {
				oldest = age
			}
		}
	}
	return oldest
}

// Status returns a progress snapshot.
func (c *Coordinator) Status() StatusResponse {
	now := c.opts.Clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	st := StatusResponse{
		Version:       ProtocolVersion,
		Spec:          c.opts.Spec,
		Pending:       c.pending,
		Leased:        c.leased,
		Done:          c.completed,
		Total:         len(c.cells),
		Campaign:      "running",
		Requeues:      c.requeues,
		Conflicts:     c.conflicts,
		Evictions:     c.evictions,
		OldestLeaseMS: int64(c.oldestLeaseLocked(now) / time.Millisecond),
	}
	if c.failure != nil {
		st.Campaign = "failed"
		st.Failure = c.failure.Error()
	} else if c.closed {
		st.Campaign = "done"
	}
	ids := make([]string, 0, len(c.workers))
	for id := range c.workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		w := c.workers[id]
		ws := WorkerStatus{
			ID: w.id, Completed: w.completed, Trials: w.trials,
			BusyNS: w.busyNS, Failures: w.guard.Spent(), Evicted: w.evicted,
		}
		if w.busyNS > 0 {
			ws.TrialsPerSec = float64(w.trials) / (float64(w.busyNS) / 1e9)
		}
		st.Workers = append(st.Workers, ws)
	}
	return st
}

// Assignment records which worker completed a cell — the raw material
// for the scaling benchmark's makespan computation.
type Assignment struct {
	Cell      Cell   `json:"cell"`
	Worker    string `json:"worker"`
	Trials    int64  `json:"trials"`
	ElapsedNS int64  `json:"elapsed_ns"`
	Attempts  int    `json:"attempts"`
}

// Assignments returns the completed cells' worker assignment in cell-id
// order. Cells resumed from a checkpoint have an empty worker.
func (c *Coordinator) Assignments() []Assignment {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Assignment, 0, c.completed)
	for id := range c.cells {
		cs := &c.cells[id]
		if cs.state != stateDone {
			continue
		}
		out = append(out, Assignment{
			Cell: cs.cell, Worker: cs.worker, Trials: int64(cs.result.N),
			ElapsedNS: cs.elapsed, Attempts: cs.attempts,
		})
	}
	return out
}

// Results merges the completed grid into per-scheme results in spec
// order — the deterministic merge that makes a distributed run
// bit-identical to a sequential one. It errors until Done.
func (c *Coordinator) Results() ([]evalmc.SchemeResult, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failure != nil {
		return nil, c.failure
	}
	if c.completed != len(c.cells) {
		return nil, fmt.Errorf("cluster: campaign incomplete (%d/%d cells)", c.completed, len(c.cells))
	}
	np := int(errormodel.NumPatterns)
	out := make([]evalmc.SchemeResult, len(c.opts.Spec.Schemes))
	for i, name := range c.opts.Spec.Schemes {
		out[i].Scheme = name
		for p := 0; p < np; p++ {
			out[i].PerPattern[p] = c.cells[i*np+p].result
		}
	}
	return out, nil
}

// Handler returns the coordinator's HTTP surface (see the package
// comment for the endpoint list). Wrap with httpx.MaxBytes via
// httpx.NewServer; the handler additionally re-bounds bodies itself so
// it is safe to mount anywhere.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/lease", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpx.Error(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		body, err := httpx.ReadBody(r, MaxFrame)
		if err != nil {
			httpx.Error(w, http.StatusBadRequest, err.Error())
			return
		}
		req, err := DecodeLeaseRequest(body)
		if err != nil {
			httpx.Error(w, http.StatusBadRequest, err.Error())
			return
		}
		httpx.WriteJSON(w, http.StatusOK, c.Lease(req))
	})
	mux.HandleFunc("/v1/complete", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpx.Error(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		body, err := httpx.ReadBody(r, MaxFrame)
		if err != nil {
			httpx.Error(w, http.StatusBadRequest, err.Error())
			return
		}
		req, err := DecodeCompleteRequest(body)
		if err != nil {
			httpx.Error(w, http.StatusBadRequest, err.Error())
			return
		}
		resp, err := c.Complete(req)
		if err != nil {
			httpx.Error(w, http.StatusUnprocessableEntity, err.Error())
			return
		}
		httpx.WriteJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("/v1/status", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			httpx.Error(w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		httpx.WriteJSON(w, http.StatusOK, c.Status())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = obs.Default.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		st := c.Status()
		code := http.StatusOK
		if st.Campaign == "failed" {
			code = http.StatusServiceUnavailable
		}
		httpx.WriteJSON(w, code, map[string]any{
			"status": st.Campaign,
			"done":   st.Done,
			"total":  st.Total,
		})
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("campaignd: distributed ECC evaluation coordinator\n" +
			"endpoints: /v1/lease /v1/complete /v1/status /metrics /healthz\n"))
	})
	return mux
}

// ErrEvicted is returned by a worker whose coordinator evicted it.
var ErrEvicted = errors.New("cluster: worker evicted by coordinator")
