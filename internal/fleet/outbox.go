package fleet

import (
	"context"
	"errors"
	"math/rand"
	"net/http"

	"hbm2ecc/internal/httpx"
	"hbm2ecc/internal/resilience"
)

// Outbox is the agent-side resilient reporting queue: report frames are
// enqueued as they are produced and flushed FIFO to the coordinator,
// buffering through outages and partitions. Failed sends back off on a
// jittered exponential schedule in simulated hours; the queue is
// bounded, shedding oldest-first when a long outage overflows it
// (liveness beats history — the newest frames carry the current health
// picture, and the coordinator's rolling window ages dropped events out
// anyway). Redelivery after a lost ack is exactly-once in effect: the
// coordinator's per-node sequence dedup acks the duplicate without
// ingesting it again.
//
// Frames are flushed strictly in order and a flush stops at the first
// transient failure: sending frame seq+1 before seq would make the
// coordinator mark seq a stale duplicate and drop its events forever.
type Outbox struct {
	rep  Reporter
	opts OutboxOptions

	queue   []ReportRequest
	rng     *rand.Rand // backoff jitter
	attempt int
	gateAt  float64 // no sends before this simulated hour
	stats   OutboxStats
}

// OutboxOptions tunes an Outbox.
type OutboxOptions struct {
	// Seed feeds the backoff jitter.
	Seed int64
	// OnAck fires for every frame the coordinator acknowledged,
	// including late acks of frames buffered through an outage —
	// callers apply resp.Command here.
	OnAck func(req ReportRequest, resp ReportResponse)
}

// OutboxStats counts an outbox's lifetime activity.
type OutboxStats struct {
	// Enqueued counts frames accepted into the queue; Sent those
	// acknowledged by the coordinator (Duplicate acks included).
	Enqueued int64
	Sent     int64
	// Drops counts frames shed oldest-first on overflow.
	Drops int64
	// Failures counts failed send attempts (the frame stayed queued).
	Failures int64
	// Rejected counts poison frames the coordinator permanently
	// refused (4xx); they are dropped to unblock the queue.
	Rejected int64
}

// outboxMax bounds the queue in frames; overflow sheds oldest.
// backoffBaseHours and backoffMaxHours shape the retry backoff in
// simulated hours.
const (
	outboxMax        = 64
	backoffBaseHours = 0.5
	backoffMaxHours  = 8
)

// NewOutbox builds an outbox delivering to rep.
func NewOutbox(rep Reporter, opts OutboxOptions) *Outbox {
	return &Outbox{
		rep:  rep,
		opts: opts,
		rng:  rand.New(rand.NewSource(opts.Seed)),
	}
}

// Enqueue adds one frame, shedding the oldest if the queue is full.
func (o *Outbox) Enqueue(req ReportRequest) {
	o.stats.Enqueued++
	if len(o.queue) >= outboxMax {
		o.queue = o.queue[1:]
		o.stats.Drops++
	}
	o.queue = append(o.queue, req)
}

// Len returns the number of frames waiting.
func (o *Outbox) Len() int { return len(o.queue) }

// Stats returns the outbox's counters.
func (o *Outbox) Stats() OutboxStats { return o.stats }

// Backlogged reports whether the outbox holds frames it has failed to
// deliver at least once (distinguishes an outage from the ordinary
// enqueue-then-flush cycle).
func (o *Outbox) Backlogged() bool { return len(o.queue) > 0 && o.attempt > 0 }

// Add accumulates o into s (for fleet-wide aggregation).
func (s *OutboxStats) Add(o OutboxStats) {
	s.Enqueued += o.Enqueued
	s.Sent += o.Sent
	s.Drops += o.Drops
	s.Failures += o.Failures
	s.Rejected += o.Rejected
}

// FlushFinal is the end-of-run drain: it ignores the backoff gate and
// makes one last delivery pass.
func (o *Outbox) FlushFinal(ctx context.Context, at float64) error {
	o.gateAt = 0
	return o.Flush(ctx, at)
}

// Flush delivers queued frames in order at simulated hour at. It stops
// at the first transient failure, arming a backoff gate — further
// flushes before the gate are no-ops, so a dead coordinator costs one
// probe per backoff interval, not per tick. Context errors propagate;
// everything else is either delivered, retried later, or (for
// permanent 4xx rejections) dropped as poison.
func (o *Outbox) Flush(ctx context.Context, at float64) error {
	if len(o.queue) > 0 && at < o.gateAt {
		return nil // backing off
	}
	for len(o.queue) > 0 {
		req := o.queue[0]
		resp, err := o.rep.Report(ctx, req)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			var se *httpx.StatusError
			if errors.As(err, &se) && se.Code >= 400 && se.Code < 500 && se.Code != http.StatusTooManyRequests {
				// Permanent rejection: drop the poison frame, keep going.
				o.queue = o.queue[1:]
				o.stats.Rejected++
				continue
			}
			o.stats.Failures++
			// No attempt budget: the bounded queue is the give-up
			// mechanism.
			o.attempt++
			o.gateAt = at + resilience.Backoff(o.rng, o.attempt, backoffBaseHours, backoffMaxHours)
			return nil
		}
		o.queue = o.queue[1:]
		o.attempt = 0
		o.stats.Sent++
		if o.opts.OnAck != nil {
			o.opts.OnAck(req, resp)
		}
	}
	return nil
}
