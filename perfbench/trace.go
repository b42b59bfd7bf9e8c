package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// tracer records one span around each call the benchmark makes into a
// layer's public functions. Spans live in memory until the run ends.
// A nil *tracer is the untraced mode: every method is a no-op, so the
// job code is the same in both modes.
//
// A span's layer is its name up to the first dot ("dram.ReadWire" is in
// layer "dram"); the benchmark's own spans are in layer "bench".
type tracer struct {
	runID  string
	origin time.Time

	mu       sync.Mutex
	names    []string
	labels   []string
	nameIDs  map[string]uint16
	labelIDs map[string]uint16
	spans    []span
}

// span is kept compact because the fleet job records one per report.
type span struct {
	start, end int64 // ns since the tracer's origin
	parent     int32 // index into spans, -1 for a root
	name       uint16
	label      uint16
}

// spanID identifies an open span; noSpan is the untraced id.
type spanID int32

const noSpan spanID = -1

func newTracer(runID string) *tracer {
	return &tracer{runID: runID, origin: time.Now(),
		names: []string{""}, labels: []string{""},
		nameIDs: map[string]uint16{}, labelIDs: map[string]uint16{}}
}

// internLocked returns s's index in table, adding it on first use; the
// empty string is index 0.
func internLocked(table *[]string, ids map[string]uint16, s string) uint16 {
	if s == "" {
		return 0
	}
	if id, ok := ids[s]; ok {
		return id
	}
	id := uint16(len(*table))
	*table = append(*table, s)
	ids[s] = id
	return id
}

// begin opens a span named name (with an optional label such as the
// scheme or pattern) under parent.
func (t *tracer) begin(name, label string, parent spanID) spanID {
	if t == nil {
		return noSpan
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	id := spanID(len(t.spans))
	t.spans = append(t.spans, span{
		start:  now,
		parent: int32(parent),
		name:   internLocked(&t.names, t.nameIDs, name),
		label:  internLocked(&t.labels, t.labelIDs, label),
	})
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id spanID) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// add records a finished span from start to end: a call the program
// reports through a callback rather than one the benchmark makes.
func (t *tracer) add(name, label string, parent spanID, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		start:  start.Sub(t.origin).Nanoseconds(),
		end:    end.Sub(t.origin).Nanoseconds(),
		parent: int32(parent),
		name:   internLocked(&t.names, t.nameIDs, name),
		label:  internLocked(&t.labels, t.labelIDs, label),
	})
	t.mu.Unlock()
}

// reset drops the recorded spans (the name tables stay), so a traced
// run holds the spans of its latest round only.
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.mu.Unlock()
}

// spanView is a closed span as the per-layer arithmetic sees it.
type spanView struct {
	Name, Label string
	Start, End  int64
	Parent      int32
}

func (s spanView) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

func (s spanView) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

func (t *tracer) view() []spanView {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]spanView, len(t.spans))
	for i, s := range t.spans {
		out[i] = spanView{Name: t.names[s.name], Label: t.labels[s.label],
			Start: s.start, End: s.end, Parent: s.parent}
	}
	return out
}

// sumSeconds totals the durations of spans named name whose label
// satisfies keep (nil keeps every label).
func sumSeconds(spans []spanView, name string, keep func(label string) bool) float64 {
	total := 0.0
	for _, s := range spans {
		if s.Name == name && (keep == nil || keep(s.Label)) {
			total += s.seconds()
		}
	}
	return total
}

// selfSeconds returns each layer's self time: its spans' durations minus
// the part covered by their direct children. Concurrent children (the
// workload job runs cells in parallel) can cover more than their
// parent; a parent's self time is then clamped at zero.
func selfSeconds(spans []spanView) map[string]float64 {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]float64{}
	for i, s := range spans {
		self := s.End - s.Start - child[i]
		if self < 0 {
			self = 0
		}
		out[s.layer()] += float64(self) / 1e9
	}
	return out
}

// coverage returns the share of the root span's wall time covered by
// spans of named layers: the length of the union of their intervals over
// the root's duration. For sequential calls this is the sum of the
// layers' self times over the wall time; the union also handles
// concurrent cells without counting overlapped time twice.
func coverage(spans []spanView, root int) float64 {
	r := spans[root]
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, s := range spans {
		if s.layer() == "bench" {
			continue
		}
		a, b := max(s.Start, r.Start), min(s.End, r.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, curA, curB int64
	curA, curB = -1, -1
	for _, v := range ivs {
		if v.a > curB {
			covered += curB - curA
			curA, curB = v.a, v.b
			continue
		}
		curB = max(curB, v.b)
	}
	covered += curB - curA
	if r.End <= r.Start {
		return 0
	}
	return float64(covered) / float64(r.End-r.Start)
}

// write stores the recorded spans as gzipped JSON lines under dir: one
// header line with the run ID, then one line per span.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, workload+".jsonl.gz")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	defer f.Close()
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(zw)
	enc := json.NewEncoder(bw)
	spans := t.view()
	if err := enc.Encode(map[string]any{"run_id": t.runID, "workload": workload,
		"seed": seed, "spans": len(spans)}); err != nil {
		return "", err
	}
	for i, s := range spans {
		if err := enc.Encode(struct {
			RunID  string `json:"run_id"`
			ID     int    `json:"id"`
			Parent int32  `json:"parent"`
			Name   string `json:"name"`
			Label  string `json:"label,omitempty"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
		}{t.runID, i, s.Parent, s.Name, s.Label, s.Start, s.End}); err != nil {
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		return "", err
	}
	if err := zw.Close(); err != nil {
		return "", err
	}
	return path, f.Close()
}
