package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Tracer produces spans: named, timed phases of a long-running job,
// arranged in per-campaign trees. Finishing a span records its duration
// into an obs_span_duration_seconds histogram on the tracer's registry
// (labeled by span name), so aggregate phase timings survive even when
// individual spans are dropped by the retention caps.
type Tracer struct {
	durations *HistogramVec

	mu       sync.Mutex
	roots    []*Span
	retained int
	maxRoots int
	maxSpans int
	dropped  int
	phases   map[string]*PhaseStat
	open     map[string]*openPhase
	now      func() time.Time
}

// PhaseStat aggregates finished spans sharing one name. Total sums their
// durations, so concurrent spans can add up past the run's length; Wall
// is the union of their intervals, the time at least one was open.
type PhaseStat struct {
	Name  string
	Count int
	Total time.Duration
	Wall  time.Duration
}

// openPhase tracks one phase's open spans: n of them, the earliest
// opened at since. Wall grows by end-since when n returns to 0.
type openPhase struct {
	n     int
	since time.Time
}

// Mean returns the mean duration of the phase.
func (p PhaseStat) Mean() time.Duration {
	if p.Count == 0 {
		return 0
	}
	return p.Total / time.Duration(p.Count)
}

// NewTracer builds a tracer recording durations on r.
func NewTracer(r *Registry) *Tracer {
	return &Tracer{
		durations: r.Histogram("obs_span_duration_seconds",
			"Wall-clock duration of finished spans by name.",
			ExpBuckets(1e-6, 4, 16), "span"),
		maxRoots: 64,
		maxSpans: 8192,
		phases:   map[string]*PhaseStat{},
		open:     map[string]*openPhase{},
		now:      time.Now,
	}
}

// DefaultTracer records on the Default registry.
var DefaultTracer = NewTracer(Default)

// SetClock replaces the tracer's time source (tests).
func (t *Tracer) SetClock(fn func() time.Time) {
	t.mu.Lock()
	t.now = fn
	t.mu.Unlock()
}

// SetLimits adjusts the span retention caps (maximum retained root spans
// and maximum retained spans in total). Aggregate phase statistics are
// unaffected by retention.
func (t *Tracer) SetLimits(maxRoots, maxSpans int) {
	t.mu.Lock()
	t.maxRoots, t.maxSpans = maxRoots, maxSpans
	t.mu.Unlock()
}

// Span is one timed phase. Spans are created by Tracer.Start or
// Span.Child and closed with Finish. A nil *Span is a valid no-op
// receiver, so call sites can thread optional spans without nil checks.
type Span struct {
	Name string

	t      *Tracer
	start  time.Time
	end    time.Time
	attrs  map[string]string
	smu    sync.Mutex
	childs []*Span
}

// Start opens a new root span.
func (t *Tracer) Start(name string) *Span {
	t.mu.Lock()
	s := &Span{Name: name, t: t, start: t.now()}
	t.opened(s)
	if len(t.roots) >= t.maxRoots && t.maxRoots > 0 {
		// FIFO: the oldest campaign tree ages out, releasing its
		// retention budget to future spans.
		t.retained -= subtreeSize(t.roots[0])
		t.roots = t.roots[1:]
	}
	t.roots = append(t.roots, s)
	t.retained++
	t.mu.Unlock()
	return s
}

func subtreeSize(s *Span) int {
	n := 1
	s.smu.Lock()
	kids := append([]*Span(nil), s.childs...)
	s.smu.Unlock()
	for _, c := range kids {
		n += subtreeSize(c)
	}
	return n
}

// Child opens a sub-span. Children are retained in start order until the
// tracer's span cap is reached; past the cap they are still timed (and
// aggregated) but not attached to the tree.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	t := s.t
	t.mu.Lock()
	c := &Span{Name: name, t: t, start: t.now()}
	t.opened(c)
	retain := t.retained < t.maxSpans || t.maxSpans <= 0
	if retain {
		t.retained++
	} else {
		t.dropped++
	}
	t.mu.Unlock()
	if retain {
		s.smu.Lock()
		s.childs = append(s.childs, c)
		s.smu.Unlock()
	}
	return c
}

// opened counts s as open in its phase; t.mu must be held.
func (t *Tracer) opened(s *Span) {
	o := t.open[s.Name]
	if o == nil {
		o = &openPhase{}
		t.open[s.Name] = o
	}
	if o.n == 0 {
		o.since = s.start
	}
	o.n++
}

// SetAttr attaches a key/value annotation to the span.
func (s *Span) SetAttr(k, v string) {
	if s == nil {
		return
	}
	s.smu.Lock()
	if s.attrs == nil {
		s.attrs = map[string]string{}
	}
	s.attrs[k] = v
	s.smu.Unlock()
}

// Finish closes the span and records its duration.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	t := s.t
	t.mu.Lock()
	s.end = t.now()
	d := s.end.Sub(s.start)
	ps := t.phases[s.Name]
	if ps == nil {
		ps = &PhaseStat{Name: s.Name}
		t.phases[s.Name] = ps
	}
	ps.Count++
	ps.Total += d
	if o := t.open[s.Name]; o != nil && o.n > 0 {
		if o.n--; o.n == 0 {
			ps.Wall += s.end.Sub(o.since)
		}
	}
	t.mu.Unlock()
	t.durations.With(s.Name).Observe(d.Seconds())
}

// Duration returns the span's duration (zero until finished).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	if s.end.IsZero() {
		return 0
	}
	return s.end.Sub(s.start)
}

// Children returns the retained child spans in start order.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.smu.Lock()
	defer s.smu.Unlock()
	return append([]*Span(nil), s.childs...)
}

// Roots returns the retained root spans, oldest first.
func (t *Tracer) Roots() []*Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Span(nil), t.roots...)
}

// Dropped returns how many spans were timed but not retained.
func (t *Tracer) Dropped() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Phases returns aggregate statistics of finished spans, sorted by total
// duration descending.
func (t *Tracer) Phases() []PhaseStat {
	t.mu.Lock()
	out := make([]PhaseStat, 0, len(t.phases))
	for _, p := range t.phases {
		out = append(out, *p)
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// WritePhaseSummary renders the aggregate phase table:
//
//	span                      count   total      wall      mean
func (t *Tracer) WritePhaseSummary(w io.Writer) error {
	phases := t.Phases()
	if len(phases) == 0 {
		_, err := fmt.Fprintln(w, "(no spans recorded)")
		return err
	}
	width := len("span")
	for _, p := range phases {
		if len(p.Name) > width {
			width = len(p.Name)
		}
	}
	if _, err := fmt.Fprintf(w, "%-*s  %7s  %12s  %12s  %12s\n", width, "span", "count", "total", "wall", "mean"); err != nil {
		return err
	}
	for _, p := range phases {
		if _, err := fmt.Fprintf(w, "%-*s  %7d  %12s  %12s  %12s\n", width, p.Name, p.Count,
			p.Total.Round(time.Microsecond), p.Wall.Round(time.Microsecond), p.Mean().Round(time.Microsecond)); err != nil {
			return err
		}
	}
	return nil
}

// WriteTree renders the span tree rooted at s, one span per line with
// indentation, duration, and attributes.
func (s *Span) WriteTree(w io.Writer) error {
	return s.writeTree(w, 0)
}

func (s *Span) writeTree(w io.Writer, depth int) error {
	if s == nil {
		return nil
	}
	dur := "running"
	if d := s.Duration(); d > 0 || !s.endIsZero() {
		dur = d.Round(time.Microsecond).String()
	}
	attrs := s.attrString()
	if _, err := fmt.Fprintf(w, "%s%s (%s)%s\n",
		strings.Repeat("  ", depth), s.Name, dur, attrs); err != nil {
		return err
	}
	for _, c := range s.Children() {
		if err := c.writeTree(w, depth+1); err != nil {
			return err
		}
	}
	return nil
}

func (s *Span) endIsZero() bool {
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	return s.end.IsZero()
}

func (s *Span) attrString() string {
	s.smu.Lock()
	defer s.smu.Unlock()
	if len(s.attrs) == 0 {
		return ""
	}
	keys := make([]string, 0, len(s.attrs))
	for k := range s.attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%s", k, s.attrs[k])
	}
	return b.String()
}
