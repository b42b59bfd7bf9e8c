package cluster

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"strings"
	"time"

	"hbm2ecc/internal/core"
	"hbm2ecc/internal/evalmc"
	"hbm2ecc/internal/httpx"
	"hbm2ecc/internal/obs"
	"hbm2ecc/internal/resilience"
)

var (
	mWorkerCells = obs.NewCounter("cluster_worker_cells_total",
		"Cells evaluated by this process's workers, by outcome.", "outcome")
	mWorkerNetRetries = obs.NewCounter("cluster_worker_net_retries_total",
		"Worker HTTP calls retried after transport errors.").With()
)

// WorkerOptions configures a campaign worker.
type WorkerOptions struct {
	// ID names the worker to the coordinator. Defaults to
	// "<hostname>-<pid>".
	ID string
	// BaseURL is the coordinator's address, e.g. "http://host:8335".
	BaseURL string
	// Client overrides the hardened default HTTP client (30s request
	// timeout, bounded responses).
	Client *httpx.Client
	// PollMax bounds the wait between lease polls when the queue is
	// drained but the campaign isn't done (default 2s).
	PollMax time.Duration
}

// A worker claims leaseCells cells per lease request: the
// finest-grained load balancing. netBudget is how many consecutive
// transport failures it tolerates before giving up, with backoff
// between attempts.
const (
	leaseCells = 1
	netBudget  = 10
)

func (o *WorkerOptions) defaults() {
	if o.ID == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		o.ID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if o.Client == nil {
		o.Client = httpx.NewClient(30 * time.Second)
	}
	if o.PollMax <= 0 {
		o.PollMax = 2 * time.Second
	}
}

// Worker leases cells from a coordinator, evaluates them with the
// batch-decoder fast path, and streams results back until the campaign
// completes.
type Worker struct {
	opts    WorkerOptions
	schemes map[string]core.Scheme
	// rng draws retry jitter, seeded from the worker ID so workers
	// that lose the coordinator together retry at different moments.
	rng *rand.Rand

	// completed and trials summarize this worker's own accounting.
	completed int
	trials    int64

	// hookBeforeEvaluate, when set (tests), runs before each cell's
	// evaluation — the chaos harness's kill-switch injection point.
	hookBeforeEvaluate func(Cell)
}

// NewWorker builds a worker (opts.BaseURL is required).
func NewWorker(opts WorkerOptions) (*Worker, error) {
	opts.defaults()
	if opts.BaseURL == "" {
		return nil, fmt.Errorf("cluster: worker needs a coordinator base URL")
	}
	opts.BaseURL = strings.TrimRight(opts.BaseURL, "/")
	h := fnv.New64a()
	h.Write([]byte(opts.ID))
	return &Worker{
		opts:    opts,
		schemes: map[string]core.Scheme{},
		rng:     rand.New(rand.NewSource(int64(h.Sum64()))),
	}, nil
}

// ID returns the worker's identifier.
func (w *Worker) ID() string { return w.opts.ID }

// Completed returns how many cells this worker finished.
func (w *Worker) Completed() int { return w.completed }

// Trials returns how many trials this worker ran.
func (w *Worker) Trials() int64 { return w.trials }

func (w *Worker) schemeFor(name string) (core.Scheme, error) {
	if s, ok := w.schemes[name]; ok {
		return s, nil
	}
	s, err := core.SchemeByName(name)
	if err != nil {
		return nil, err
	}
	w.schemes[name] = s
	return s, nil
}

// retryDelay is the backoff before retry number attempt: 50ms doubling
// to a 2s cap, jittered by the worker's own rng.
func (w *Worker) retryDelay(attempt int) time.Duration {
	return time.Duration(resilience.Backoff(w.rng, attempt, 0.05, 2.0) * float64(time.Second))
}

// postWithRetry POSTs with bounded retries and deterministic-jitter
// backoff on transport errors and returns the response body; HTTP-level
// errors (4xx/5xx) are not retried — the coordinator's answer is
// authoritative.
func (w *Worker) postWithRetry(ctx context.Context, url string, in any) ([]byte, error) {
	for attempt := 1; ; attempt++ {
		body, err := w.opts.Client.Post(ctx, url, in)
		if err == nil {
			return body, nil
		}
		if _, ok := err.(*httpx.StatusError); ok {
			return nil, err
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if attempt >= netBudget {
			return nil, fmt.Errorf("cluster: coordinator unreachable after %d attempts: %w", attempt, err)
		}
		mWorkerNetRetries.Inc()
		if err := sleepCtx(ctx, w.retryDelay(attempt)); err != nil {
			return nil, err
		}
	}
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(d):
		return nil
	}
}

// Run leases and evaluates cells until the campaign reports done, the
// worker is evicted (ErrEvicted), or ctx is cancelled. A cancellation
// mid-cell abandons the lease — the coordinator re-queues it at expiry,
// which is exactly what a worker crash looks like from the outside.
func (w *Worker) Run(ctx context.Context) error {
	leaseURL := w.opts.BaseURL + "/v1/lease"
	completeURL := w.opts.BaseURL + "/v1/complete"
	for seq := uint64(1); ; seq++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		req := LeaseRequest{WorkerID: w.opts.ID, MaxCells: leaseCells, Seq: seq}
		body, err := w.postWithRetry(ctx, leaseURL, req)
		if err != nil {
			return err
		}
		resp, err := DecodeLeaseResponse(body)
		if err != nil {
			return err
		}
		switch {
		case resp.Done:
			return nil
		case resp.Evicted:
			return ErrEvicted
		case len(resp.Leases) == 0:
			wait := time.Duration(resp.RetryMS) * time.Millisecond
			if wait <= 0 || wait > w.opts.PollMax {
				wait = w.opts.PollMax
			}
			if err := sleepCtx(ctx, wait); err != nil {
				return err
			}
			continue
		}
		opts := resp.Spec.Options()
		opts.Ctx = ctx
		done := false
		for _, lease := range resp.Leases {
			s, err := w.schemeFor(lease.Cell.Scheme)
			if err != nil {
				return err
			}
			if w.hookBeforeEvaluate != nil {
				w.hookBeforeEvaluate(lease.Cell)
			}
			start := time.Now()
			r, err := evalmc.EvaluateCell(s, lease.Cell.PatternP(), opts)
			if err != nil {
				// Cancelled mid-cell: abandon the lease (it will expire
				// and re-queue) — never ship partial counts.
				mWorkerCells.With("abandoned").Inc()
				return err
			}
			elapsed := time.Since(start)
			creq := CompleteRequest{
				WorkerID:  w.opts.ID,
				LeaseID:   lease.ID,
				Cell:      lease.Cell,
				Result:    r,
				ElapsedNS: elapsed.Nanoseconds(),
			}
			body, err := w.postWithRetry(ctx, completeURL, creq)
			if err != nil {
				return err
			}
			var cresp CompleteResponse
			if err := decodeStrict(body, &cresp); err != nil {
				return err
			}
			outcome := "completed"
			switch {
			case cresp.Duplicate:
				outcome = "duplicate"
			case cresp.Stale:
				outcome = "stale"
			}
			mWorkerCells.With(outcome).Inc()
			if cresp.Accepted {
				w.completed++
				w.trials += int64(r.N)
			}
			done = done || cresp.Done
		}
		if done {
			return nil
		}
	}
}
