// Package obs is the repository's dependency-free observability layer:
// a concurrency-safe metrics registry (counters, gauges, bucketed
// histograms, all with labels) exposed in Prometheus text format and as
// a JSON-marshalable Snapshot, plus lightweight span tracing so
// long-running campaigns decompose into timed phases. It is stdlib-only
// by design — the same expvar-ish philosophy, but with label vectors,
// histograms and an exposition format real scrapers understand.
//
// Hot paths pay one atomic add per update: metric handles are resolved
// once (typically into package-level vars) and are safe for concurrent
// use. The package-level Default registry is what the instrumented
// packages (internal/beam, internal/microbench, internal/evalmc,
// internal/core, internal/fleet) publish to and every command's
// -metrics dump writes; tests can build private registries.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind enumerates the metric types.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// Registry holds metric families. The zero value is not usable; call
// NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

type family struct {
	name       string
	help       string
	kind       Kind
	labelNames []string
	buckets    []float64 // histograms only

	mu     sync.Mutex
	series map[string]*series
	order  []*series // insertion order, re-sorted at exposition
}

type series struct {
	labelValues []string
	counter     atomic.Uint64 // counters
	gaugeBits   atomic.Uint64 // gauges: math.Float64bits
	hist        *histState    // histograms
}

type histState struct {
	upper   []float64 // sorted upper bounds, +Inf excluded
	counts  []atomic.Uint64
	inf     atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// Default is the process-wide registry used by the instrumented packages.
var Default = NewRegistry()

func (r *Registry) family(name, help string, kind Kind, buckets []float64, labelNames []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || len(f.labelNames) != len(labelNames) {
			panic(fmt.Sprintf("obs: metric %q re-registered with different type or labels", name))
		}
		for i := range labelNames {
			if f.labelNames[i] != labelNames[i] {
				panic(fmt.Sprintf("obs: metric %q re-registered with different labels", name))
			}
		}
		return f
	}
	f := &family{
		name:       name,
		help:       help,
		kind:       kind,
		labelNames: append([]string(nil), labelNames...),
		buckets:    append([]float64(nil), buckets...),
		series:     map[string]*series{},
	}
	r.families[name] = f
	return f
}

func (f *family) get(labelValues []string) *series {
	if len(labelValues) != len(f.labelNames) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d",
			f.name, len(f.labelNames), len(labelValues)))
	}
	key := strings.Join(labelValues, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := &series{labelValues: append([]string(nil), labelValues...)}
	if f.kind == KindHistogram {
		s.hist = &histState{
			upper:  f.buckets,
			counts: make([]atomic.Uint64, len(f.buckets)),
		}
	}
	f.series[key] = s
	f.order = append(f.order, s)
	return s
}

// ---- Counters ----

// Counter is a monotonically increasing metric.
type Counter struct{ s *series }

// Inc adds 1.
func (c *Counter) Inc() { c.s.counter.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.s.counter.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.s.counter.Load() }

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// With resolves the counter for the given label values (created on first
// use). The returned handle is cheap and safe to cache.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return &Counter{s: v.f.get(labelValues)}
}

// Counter registers (or finds) a counter family on r.
func (r *Registry) Counter(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{f: r.family(name, help, KindCounter, nil, labelNames)}
}

// NewCounter registers a counter family on the Default registry.
func NewCounter(name, help string, labelNames ...string) *CounterVec {
	return Default.Counter(name, help, labelNames...)
}

// ---- Gauges ----

// Gauge is a metric that can go up and down.
type Gauge struct{ s *series }

// Set stores v.
func (g *Gauge) Set(v float64) { g.s.gaugeBits.Store(math.Float64bits(v)) }

// Add atomically adds d.
func (g *Gauge) Add(d float64) {
	for {
		old := g.s.gaugeBits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + d)
		if g.s.gaugeBits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.s.gaugeBits.Load()) }

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// With resolves the gauge for the given label values.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return &Gauge{s: v.f.get(labelValues)}
}

// Gauge registers (or finds) a gauge family on r.
func (r *Registry) Gauge(name, help string, labelNames ...string) *GaugeVec {
	return &GaugeVec{f: r.family(name, help, KindGauge, nil, labelNames)}
}

// NewGauge registers a gauge family on the Default registry.
func NewGauge(name, help string, labelNames ...string) *GaugeVec {
	return Default.Gauge(name, help, labelNames...)
}

// ---- Histograms ----

// Histogram accumulates observations into cumulative buckets.
type Histogram struct{ s *series }

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	st := h.s.hist
	i := sort.SearchFloat64s(st.upper, v)
	if i < len(st.counts) {
		st.counts[i].Add(1)
	} else {
		st.inf.Add(1)
	}
	st.count.Add(1)
	for {
		old := st.sumBits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if st.sumBits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.s.hist.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.s.hist.sumBits.Load()) }

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// With resolves the histogram for the given label values.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return &Histogram{s: v.f.get(labelValues)}
}

// Histogram registers (or finds) a histogram family on r. The buckets are
// upper bounds in increasing order; a +Inf bucket is implicit.
func (r *Registry) Histogram(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	if !sort.Float64sAreSorted(buckets) {
		panic(fmt.Sprintf("obs: histogram %q buckets not sorted", name))
	}
	return &HistogramVec{f: r.family(name, help, KindHistogram, buckets, labelNames)}
}

// NewHistogram registers a histogram family on the Default registry.
func NewHistogram(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	return Default.Histogram(name, help, buckets, labelNames...)
}

// DefBuckets is a general-purpose set of duration-ish buckets (seconds).
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10,
}

// ExpBuckets returns n exponentially spaced buckets starting at start
// and multiplying by factor.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := 0; i < n; i++ {
		out[i] = v
		v *= factor
	}
	return out
}
