// Package netchaos is the repository's reusable network fault layer: a
// seeded, deterministic http.RoundTripper that injects the failure
// modes a real datacenter interconnect produces — dropped requests,
// added latency, duplicated deliveries, corrupted response frames, and
// hard partitions — between any HTTP client and server in the test
// suites (cluster workers, fleet agents).
//
// It generalizes the ad-hoc flakyTransport that lived in
// internal/cluster's chaos tests. All decisions are drawn from one
// seeded RNG in request-arrival order, so single-threaded test loops
// replay identically run to run; concurrent callers are safe but
// interleave their draws.
package netchaos

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// Plan is the deterministic fault plan one Transport executes.
type Plan struct {
	// Seed feeds the RNG behind every probabilistic decision.
	Seed int64
	// DropEvery fails every Nth request deterministically (0 disables) —
	// the exact behavior of the old cluster flakyTransport at N=3.
	// Drops and partition checks happen before the request is sent: the
	// server never sees a dropped frame.
	DropEvery int
	// DropProb fails requests with this probability.
	DropProb float64
	// DupProb delivers the request twice (second delivery synchronous,
	// its response discarded) — the redelivery a retrying client
	// produces when an ack is lost. Requires req.GetBody (true for all
	// stdlib-built requests with byte/reader bodies).
	DupProb float64
	// CorruptProb flips one byte of the response body, exercising the
	// strict-codec rejection path on the client side. The server-side
	// effect of the request stands — the client must treat the mangled
	// ack as a transport failure and recover by redelivery.
	CorruptProb float64
	// DelayProb sleeps a random duration up to DelayMax before
	// forwarding (wall-clock; keep small in tests).
	DelayProb float64
	DelayMax  time.Duration
	// MaxBody bounds response bodies buffered for corruption
	// (default 1 MiB).
	MaxBody int64
}

// Stats counts what the transport has done so far.
type Stats struct {
	Requests  int64 // RoundTrip calls seen
	Forwarded int64 // requests actually delivered at least once
	Drops     int64 // requests failed by DropEvery/DropProb
	Partition int64 // requests failed because the transport was partitioned
	Dups      int64 // requests delivered twice
	Corrupts  int64 // responses with a flipped byte
	Delays    int64 // requests delayed before delivery
}

// Transport injects the Plan between a client and its underlying
// RoundTripper. The zero value is unusable; build with New.
type Transport struct {
	plan Plan
	next http.RoundTripper

	mu          sync.Mutex
	rng         *rand.Rand
	n           int64
	partitioned bool
	stats       Stats
}

// New builds a Transport executing plan over next (nil selects
// http.DefaultTransport).
func New(plan Plan, next http.RoundTripper) *Transport {
	if next == nil {
		next = http.DefaultTransport
	}
	if plan.MaxBody <= 0 {
		plan.MaxBody = 1 << 20
	}
	return &Transport{
		plan: plan,
		next: next,
		rng:  rand.New(rand.NewSource(plan.Seed)),
	}
}

// SetPartitioned raises or heals a hard partition: while set, every
// request fails before reaching the network. Tests flip this from
// their simulated-time hooks to model partition windows.
func (t *Transport) SetPartitioned(on bool) {
	t.mu.Lock()
	t.partitioned = on
	t.mu.Unlock()
}

// Partitioned reports whether the hard partition is up.
func (t *Transport) Partitioned() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.partitioned
}

// Stats returns a snapshot of the transport's counters.
func (t *Transport) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

// decision is one request's fate, drawn under the lock so the RNG
// stream is consumed in arrival order.
type decision struct {
	drop    bool
	dropMsg string
	dup     bool
	corrupt bool
	delay   time.Duration
}

func (t *Transport) decide() decision {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.n++
	t.stats.Requests++
	var d decision
	switch {
	case t.partitioned:
		t.stats.Partition++
		d.drop, d.dropMsg = true, fmt.Sprintf("netchaos: partitioned (request %d)", t.n)
	case t.plan.DropEvery > 0 && t.n%int64(t.plan.DropEvery) == 0:
		t.stats.Drops++
		d.drop, d.dropMsg = true, fmt.Sprintf("netchaos: dropped request %d", t.n)
	case t.plan.DropProb > 0 && t.rng.Float64() < t.plan.DropProb:
		t.stats.Drops++
		d.drop, d.dropMsg = true, fmt.Sprintf("netchaos: dropped request %d", t.n)
	}
	if d.drop {
		return d
	}
	if t.plan.DupProb > 0 && t.rng.Float64() < t.plan.DupProb {
		d.dup = true
		t.stats.Dups++
	}
	if t.plan.CorruptProb > 0 && t.rng.Float64() < t.plan.CorruptProb {
		d.corrupt = true
		t.stats.Corrupts++
	}
	if t.plan.DelayProb > 0 && t.rng.Float64() < t.plan.DelayProb {
		d.delay = time.Duration(t.rng.Int63n(int64(t.plan.DelayMax) + 1))
		t.stats.Delays++
	}
	t.stats.Forwarded++
	return d
}

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	d := t.decide()
	if d.drop {
		return nil, fmt.Errorf("%s", d.dropMsg)
	}
	if d.delay > 0 {
		select {
		case <-req.Context().Done():
			return nil, req.Context().Err()
		case <-time.After(d.delay):
		}
	}
	if d.dup && req.GetBody != nil {
		// First delivery: the one whose response the client never sees
		// (a lost ack). Its server-side effect stands; the "retry" below
		// is the delivery the client observes. Idempotency at the server
		// is what keeps this invisible.
		first := req.Clone(req.Context())
		body, err := req.GetBody()
		if err == nil {
			first.Body = body
			if resp, err := t.next.RoundTrip(first); err == nil {
				io.Copy(io.Discard, io.LimitReader(resp.Body, t.plan.MaxBody))
				resp.Body.Close()
			}
			retry, err := req.GetBody()
			if err != nil {
				return nil, fmt.Errorf("netchaos: rebuilding duplicated body: %w", err)
			}
			req = req.Clone(req.Context())
			req.Body = retry
		}
	}
	resp, err := t.next.RoundTrip(req)
	if err != nil || !d.corrupt {
		return resp, err
	}
	// Corrupt one byte of the response body, CRC/codec layers downstream
	// must catch it.
	raw, err := io.ReadAll(io.LimitReader(resp.Body, t.plan.MaxBody))
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("netchaos: buffering response for corruption: %w", err)
	}
	if len(raw) > 0 {
		t.mu.Lock()
		i := t.rng.Intn(len(raw))
		t.mu.Unlock()
		raw[i] ^= 0x5a
	}
	resp.Body = io.NopCloser(bytes.NewReader(raw))
	resp.ContentLength = int64(len(raw))
	resp.Header.Del("Content-Length")
	return resp, nil
}
