package obs

import (
	"strings"
	"testing"
	"time"
)

// fakeClock advances a fixed step on every reading, making span
// durations and ordering deterministic.
type fakeClock struct {
	t    time.Time
	step time.Duration
}

func (c *fakeClock) now() time.Time {
	c.t = c.t.Add(c.step)
	return c.t
}

func newTestTracer() (*Tracer, *Registry) {
	r := NewRegistry()
	tr := NewTracer(r)
	tr.SetClock((&fakeClock{t: time.Unix(0, 0), step: time.Millisecond}).now)
	return tr, r
}

// TestSpanTreeOrdering verifies that a campaign-shaped span tree retains
// children in start order with correct nesting and durations.
func TestSpanTreeOrdering(t *testing.T) {
	tr, _ := newTestTracer()

	campaign := tr.Start("campaign")
	setup := campaign.Child("device_setup")
	setup.Finish()
	for i := 0; i < 3; i++ {
		run := campaign.Child("run")
		w := run.Child("write_pass")
		w.Finish()
		rd := run.Child("read_scan")
		rd.Finish()
		run.Finish()
	}
	campaign.Finish()

	roots := tr.Roots()
	if len(roots) != 1 || roots[0].Name != "campaign" {
		t.Fatalf("roots = %v", roots)
	}
	kids := roots[0].Children()
	wantOrder := []string{"device_setup", "run", "run", "run"}
	if len(kids) != len(wantOrder) {
		t.Fatalf("children = %d, want %d", len(kids), len(wantOrder))
	}
	for i, k := range kids {
		if k.Name != wantOrder[i] {
			t.Errorf("child[%d] = %q, want %q", i, k.Name, wantOrder[i])
		}
	}
	grand := kids[1].Children()
	if len(grand) != 2 || grand[0].Name != "write_pass" || grand[1].Name != "read_scan" {
		t.Errorf("run children wrong: %v", grand)
	}
	// Each run wraps 2 children; with a 1ms-per-reading clock its span
	// covers strictly more readings than each child's.
	if kids[1].Duration() <= grand[0].Duration() {
		t.Errorf("run duration %v not greater than child duration %v",
			kids[1].Duration(), grand[0].Duration())
	}

	phases := tr.Phases()
	byName := map[string]PhaseStat{}
	for _, p := range phases {
		byName[p.Name] = p
	}
	if byName["run"].Count != 3 || byName["write_pass"].Count != 3 {
		t.Errorf("phase counts wrong: %+v", byName)
	}
	if byName["campaign"].Total <= byName["run"].Total/3 {
		t.Errorf("campaign total %v suspiciously small", byName["campaign"].Total)
	}
}

func TestSpanTreeRendering(t *testing.T) {
	tr, _ := newTestTracer()
	root := tr.Start("campaign")
	root.SetAttr("runs", "2")
	c := root.Child("run")
	c.Finish()
	root.Finish()

	var b strings.Builder
	if err := root.WriteTree(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	lines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("tree lines = %d, want 2:\n%s", len(lines), got)
	}
	if !strings.HasPrefix(lines[0], "campaign (") || !strings.Contains(lines[0], "runs=2") {
		t.Errorf("root line wrong: %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "  run (") {
		t.Errorf("child line not indented: %q", lines[1])
	}
}

// TestSpanRetentionCaps checks that the caps bound memory while the
// aggregate statistics keep counting.
func TestSpanRetentionCaps(t *testing.T) {
	tr, _ := newTestTracer()
	tr.SetLimits(2, 4)
	for i := 0; i < 5; i++ {
		s := tr.Start("root")
		for j := 0; j < 3; j++ {
			c := s.Child("leaf")
			c.Finish()
		}
		s.Finish()
	}
	if got := len(tr.Roots()); got != 2 {
		t.Errorf("retained roots = %d, want 2", got)
	}
	if tr.Dropped() == 0 {
		t.Errorf("expected dropped spans past the cap")
	}
	for _, p := range tr.Phases() {
		if p.Name == "leaf" && p.Count != 15 {
			t.Errorf("leaf phase count = %d, want 15 (aggregation must ignore retention)", p.Count)
		}
	}
}

func TestNilSpanIsNoOp(t *testing.T) {
	var s *Span
	c := s.Child("x")
	if c != nil {
		t.Fatalf("nil span Child = %v, want nil", c)
	}
	s.SetAttr("k", "v")
	s.Finish()
	if d := s.Duration(); d != 0 {
		t.Errorf("nil span duration = %v", d)
	}
}

func TestSpanDurationHistogramRecorded(t *testing.T) {
	tr, r := newTestTracer()
	s := tr.Start("phase")
	s.Finish()
	h := r.Histogram("obs_span_duration_seconds", "", nil, "span").With("phase")
	if h.Count() != 1 {
		t.Errorf("histogram count = %d, want 1", h.Count())
	}
}

// TestPhaseWallCoverage checks Wall is the union of a phase's span
// intervals: sequential spans cover as much wall time as they sum to,
// overlapping ones less, and a gap between two overlap groups is not
// covered. Total stays the plain sum.
func TestPhaseWallCoverage(t *testing.T) {
	tr := NewTracer(NewRegistry())
	now := time.Unix(0, 0)
	tr.SetClock(func() time.Time { return now })
	at := func(ms int) { now = time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }

	root := tr.Start("root")
	for i := 0; i < 3; i++ { // [0,10) [10,20) [20,30)
		at(10 * i)
		s := root.Child("seq")
		at(10*i + 10)
		s.Finish()
	}
	// [100,130) and [110,140) overlap; [200,210) after a gap.
	at(100)
	a := root.Child("par")
	at(110)
	b := root.Child("par")
	at(130)
	a.Finish()
	at(140)
	b.Finish()
	at(200)
	c := root.Child("par")
	at(210)
	c.Finish()
	root.Finish()

	byName := map[string]PhaseStat{}
	for _, p := range tr.Phases() {
		byName[p.Name] = p
	}
	ms := time.Millisecond
	if seq := byName["seq"]; seq.Total != 30*ms || seq.Wall != seq.Total {
		t.Errorf("sequential spans: total %v wall %v, want both 30ms", seq.Total, seq.Wall)
	}
	if par := byName["par"]; par.Total != 70*ms || par.Wall != 50*ms {
		t.Errorf("overlapping spans: total %v wall %v, want 70ms and 50ms", par.Total, par.Wall)
	}
	if r := byName["root"]; r.Wall != r.Total || r.Total != 210*ms {
		t.Errorf("root: total %v wall %v, want both 210ms", r.Total, r.Wall)
	}

	var out strings.Builder
	if err := tr.WritePhaseSummary(&out); err != nil {
		t.Fatal(err)
	}
	if head := strings.Fields(strings.SplitN(out.String(), "\n", 2)[0]); strings.Join(head, " ") != "span count total wall mean" {
		t.Errorf("summary header %q", head)
	}
}
