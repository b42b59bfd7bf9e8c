package obs

import (
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// DumpPrometheus writes the registry's text exposition to path, with "-"
// meaning stdout. Close errors are reported, not dropped — metric dumps
// are often the only artifact of a long campaign.
func (r *Registry) DumpPrometheus(path string) error {
	if path == "-" {
		return r.WritePrometheus(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WritePrometheus(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): families sorted by name, series sorted by label
// values, histograms expanded into cumulative _bucket/_sum/_count lines.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	fams := make(map[string]*family, len(r.families))
	for n, f := range r.families {
		names = append(names, n)
		fams[n] = f
	}
	r.mu.Unlock()
	sort.Strings(names)

	for _, n := range names {
		f := fams[n]
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
			f.name, escapeHelp(f.help), f.name, f.kind); err != nil {
			return err
		}
		for _, s := range f.sortedSeries() {
			if err := writeSeries(w, f, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func (f *family) sortedSeries() []*series {
	f.mu.Lock()
	out := append([]*series(nil), f.order...)
	f.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].labelValues, out[j].labelValues
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out
}

func writeSeries(w io.Writer, f *family, s *series) error {
	switch f.kind {
	case KindCounter:
		_, err := fmt.Fprintf(w, "%s%s %d\n",
			f.name, labelString(f.labelNames, s.labelValues, "", ""), s.counter.Load())
		return err
	case KindGauge:
		_, err := fmt.Fprintf(w, "%s%s %s\n",
			f.name, labelString(f.labelNames, s.labelValues, "", ""),
			formatFloat(math.Float64frombits(s.gaugeBits.Load())))
		return err
	case KindHistogram:
		st := s.hist
		cum := uint64(0)
		for i, ub := range st.upper {
			cum += st.counts[i].Load()
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
				f.name, labelString(f.labelNames, s.labelValues, "le", formatFloat(ub)), cum); err != nil {
				return err
			}
		}
		cum += st.inf.Load()
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			f.name, labelString(f.labelNames, s.labelValues, "le", "+Inf"), cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name,
			labelString(f.labelNames, s.labelValues, "", ""),
			formatFloat(math.Float64frombits(st.sumBits.Load()))); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name,
			labelString(f.labelNames, s.labelValues, "", ""), st.count.Load())
		return err
	}
	return nil
}

// labelString renders {k="v",...}, optionally appending one extra pair
// (used for histogram le labels). Empty label sets render as "".
func labelString(names, values []string, extraK, extraV string) string {
	if len(names) == 0 && extraK == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(names[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if extraK != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraK)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(extraV))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ---- JSON snapshot ----

// Snapshot is a point-in-time JSON-marshalable view of a registry.
type Snapshot struct {
	Families []FamilySnapshot `json:"families"`
}

// FamilySnapshot is one metric family in a Snapshot.
type FamilySnapshot struct {
	Name   string           `json:"name"`
	Help   string           `json:"help,omitempty"`
	Kind   string           `json:"kind"`
	Series []SeriesSnapshot `json:"series"`
}

// SeriesSnapshot is one labeled series in a Snapshot.
type SeriesSnapshot struct {
	Labels    map[string]string  `json:"labels,omitempty"`
	Value     float64            `json:"value"`
	Histogram *HistogramSnapshot `json:"histogram,omitempty"`
}

// HistogramSnapshot carries bucketed counts for histogram series; Buckets
// are non-cumulative per-bucket counts with UpperBounds[i] limits and an
// implicit +Inf bucket at the end.
type HistogramSnapshot struct {
	UpperBounds []float64 `json:"upper_bounds"`
	Buckets     []uint64  `json:"buckets"`
	Count       uint64    `json:"count"`
	Sum         float64   `json:"sum"`
}

// Snapshot captures the registry's current values.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	fams := make(map[string]*family, len(r.families))
	for n, f := range r.families {
		names = append(names, n)
		fams[n] = f
	}
	r.mu.Unlock()
	sort.Strings(names)

	var snap Snapshot
	for _, n := range names {
		f := fams[n]
		fs := FamilySnapshot{Name: f.name, Help: f.help, Kind: f.kind.String()}
		for _, s := range f.sortedSeries() {
			ss := SeriesSnapshot{}
			if len(f.labelNames) > 0 {
				ss.Labels = map[string]string{}
				for i, ln := range f.labelNames {
					ss.Labels[ln] = s.labelValues[i]
				}
			}
			switch f.kind {
			case KindCounter:
				ss.Value = float64(s.counter.Load())
			case KindGauge:
				ss.Value = math.Float64frombits(s.gaugeBits.Load())
			case KindHistogram:
				st := s.hist
				hs := &HistogramSnapshot{
					UpperBounds: append([]float64(nil), st.upper...),
					Count:       st.count.Load(),
					Sum:         math.Float64frombits(st.sumBits.Load()),
				}
				for i := range st.counts {
					hs.Buckets = append(hs.Buckets, st.counts[i].Load())
				}
				hs.Buckets = append(hs.Buckets, st.inf.Load())
				ss.Histogram = hs
				ss.Value = hs.Sum
			}
			fs.Series = append(fs.Series, ss)
		}
		snap.Families = append(snap.Families, fs)
	}
	return snap
}
