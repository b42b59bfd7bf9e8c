package stats

import (
	"math"
	"sync/atomic"
	"time"
)

// LatencyHist is a lock-free log-bucketed latency histogram: 10 buckets
// per decade from 1µs to 100s, accurate to ~26% per bucket — plenty for
// p50/p95/p99 reporting. The zero value is ready to use and safe for
// concurrent Observe calls.
//
// internal/serve's load generator reports its percentiles through it.
type LatencyHist struct {
	counts [101]atomic.Int64
	sum    atomic.Int64 // nanoseconds
	max    atomic.Int64 // nanoseconds
	n      atomic.Int64
}

// Observe records one latency sample.
func (h *LatencyHist) Observe(d time.Duration) {
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	i := 0
	if ns > 1000 {
		i = int(math.Round(10 * math.Log10(float64(ns)/1000)))
		if i < 0 {
			i = 0
		}
		if i >= len(h.counts) {
			i = len(h.counts) - 1
		}
	}
	h.counts[i].Add(1)
	h.sum.Add(ns)
	h.n.Add(1)
	for {
		old := h.max.Load()
		if ns <= old || h.max.CompareAndSwap(old, ns) {
			return
		}
	}
}

// Count returns the number of samples observed.
func (h *LatencyHist) Count() int64 { return h.n.Load() }

// Quantile returns the q-quantile in milliseconds (geometric bucket
// midpoint), or 0 with no samples.
func (h *LatencyHist) Quantile(q float64) float64 {
	total := h.n.Load()
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := range h.counts {
		seen += h.counts[i].Load()
		if seen >= rank {
			// Bucket i spans [1µs·10^((i-0.5)/10), 1µs·10^((i+0.5)/10)).
			return 1e-3 * math.Pow(10, float64(i)/10)
		}
	}
	return float64(h.max.Load()) / 1e6
}

// MaxMS returns the largest observed sample in milliseconds.
func (h *LatencyHist) MaxMS() float64 { return float64(h.max.Load()) / 1e6 }

// MeanMS returns the sample mean in milliseconds, or 0 with no samples.
func (h *LatencyHist) MeanMS() float64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n) / 1e6
}

// LatencySummary is the standard percentile report derived from a
// LatencyHist, JSON-shaped for bench artifacts.
type LatencySummary struct {
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms"`
	MeanMS float64 `json:"mean_ms"`
}

// Summary snapshots the standard percentiles.
func (h *LatencyHist) Summary() LatencySummary {
	return LatencySummary{
		P50MS:  h.Quantile(0.50),
		P95MS:  h.Quantile(0.95),
		P99MS:  h.Quantile(0.99),
		MaxMS:  h.MaxMS(),
		MeanMS: h.MeanMS(),
	}
}
