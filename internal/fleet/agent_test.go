package fleet

import (
	"testing"

	"hbm2ecc/internal/fleet/xid"
)

func TestAgentHealthyByDefault(t *testing.T) {
	a := NewAgent("n1", AgentOptions{})
	h, rec := a.Health(0)
	if h != Healthy || rec != xid.RemedNone {
		t.Errorf("fresh agent: %v/%v, want Healthy/none", h, rec)
	}
	if a.Pending() != 0 || a.Dead() {
		t.Errorf("fresh agent has pending=%d dead=%v", a.Pending(), a.Dead())
	}
}

func TestAgentCorrectedEmitsAndDedups(t *testing.T) {
	a := NewAgent("n1", AgentOptions{})
	for i := 0; i < 5; i++ {
		a.ObserveCorrected(1.5, int64(100+i)) // distinct rows, same stream
	}
	events := a.Drain()
	if len(events) != 1 {
		t.Fatalf("5 corrected errors drained as %d events, want 1 deduplicated", len(events))
	}
	e := events[0]
	if e.Code != xid.ContainedECC || e.N() != 5 || e.Node != "n1" {
		t.Errorf("deduplicated event = %+v", e)
	}
	if a.WindowCount(1.5, xid.ContainedECC) != 5 {
		t.Errorf("window count = %d, want 5", a.WindowCount(1.5, xid.ContainedECC))
	}
	// Drain resets the interval: the next event starts a fresh stream
	// (a fresh row, so the retirement table stays quiet).
	a.ObserveCorrected(2, 999)
	if got := a.Drain(); len(got) != 1 || got[0].N() != 1 {
		t.Errorf("post-drain event stream = %+v", got)
	}
}

// TestAgentRowRetirementCascade checks weak-row retirement: the second
// error on a row remaps it (Xid 63), later errors on it are ignored, a
// DUE counts against its row like a corrected error, and once all
// spareRows spares are used the next row to cross fails its remap
// (Xid 64) and the node must be retired.
func TestAgentRowRetirementCascade(t *testing.T) {
	a := NewAgent("n1", AgentOptions{})
	remaps := func() int { return a.WindowCount(2, xid.RowRemapRecorded) }
	a.ObserveCorrected(1, 7)
	if remaps() != 0 {
		t.Fatal("row retired after one error")
	}
	a.ObserveCorrected(1, 7)
	if remaps() != 1 {
		t.Fatalf("remap window = %d, want 1", remaps())
	}
	if h, rec := a.Health(1); h != Degraded || rec != xid.RemedMonitor {
		t.Errorf("after remap: %v/%v, want Degraded/monitor", h, rec)
	}
	a.ObserveCorrected(1, 7)
	a.ObserveCorrected(1, 7)
	if remaps() != 1 || a.rowErrs[7] != retireAfter {
		t.Fatalf("retired row kept counting: remaps %d, errors %d", remaps(), a.rowErrs[7])
	}
	a.ObserveDUE(1, 8, false)
	a.ObserveCorrected(1, 8)
	if remaps() != 2 {
		t.Fatalf("DUE not counted against its row: remaps %d, want 2", remaps())
	}
	for row := int64(100); row < 100+spareRows-2; row++ {
		a.ObserveCorrected(2, row)
		a.ObserveCorrected(2, row)
	}
	if remaps() != spareRows || a.WindowCount(2, xid.RowRemapFailure) != 0 {
		t.Fatalf("all spares used: remaps %d, failures %d, want %d and 0",
			remaps(), a.WindowCount(2, xid.RowRemapFailure), spareRows)
	}
	a.ObserveCorrected(2, 9)
	a.ObserveCorrected(2, 9)
	if remaps() != spareRows || a.WindowCount(2, xid.RowRemapFailure) != 1 {
		t.Fatalf("past the spares: remaps %d, failures %d, want %d and 1",
			remaps(), a.WindowCount(2, xid.RowRemapFailure), spareRows)
	}
	if h, rec := a.Health(2); h != Critical || rec != xid.RemedRetire {
		t.Errorf("after spare exhaustion: %v/%v, want Critical/retire", h, rec)
	}
}

func TestAgentStormFiresOncePerHour(t *testing.T) {
	a := NewAgent("n1", AgentOptions{})
	for i := 0; i < stormThreshold+4; i++ {
		a.ObserveCorrected(3.2, int64(i))
	}
	if got := a.WindowCount(3.2, xid.HighSBERate); got != 1 {
		t.Errorf("storm events in hour 3 = %d, want exactly 1", got)
	}
	// The next hour's storm fires again.
	for i := 0; i < stormThreshold+4; i++ {
		a.ObserveCorrected(4.1, int64(i))
	}
	if got := a.WindowCount(4.1, xid.HighSBERate); got != 2 {
		t.Errorf("storm events after second hour = %d, want 2", got)
	}
	if h, rec := a.Health(4.1); h != Degraded || rec != xid.RemedMonitor {
		t.Errorf("storming agent: %v/%v, want Degraded/monitor", h, rec)
	}
}

func TestAgentDUEBudget(t *testing.T) {
	a := NewAgent("n1", AgentOptions{DUEBudget: 2})
	a.ObserveDUE(1, 5, false)
	if h, rec := a.Health(1); h != Degraded || rec != xid.RemedReset {
		t.Errorf("one DUE: %v/%v, want Degraded/reset", h, rec)
	}
	a.ObserveDUE(1.5, 6, false)
	if h, rec := a.Health(1.5); h != Critical || rec != xid.RemedDrain {
		t.Errorf("budget spent: %v/%v, want Critical/drain", h, rec)
	}
	events := a.Drain()
	var dues int
	for _, e := range events {
		if e.Code == xid.DoubleBitECC {
			dues += e.N()
		}
	}
	if dues != 2 {
		t.Errorf("drained %d Xid 48 events, want 2", dues)
	}
}

func TestAgentUncontainedIsCritical(t *testing.T) {
	a := NewAgent("n1", AgentOptions{})
	a.ObserveDUE(1, 5, true)
	if h, rec := a.Health(1); h != Critical || rec != xid.RemedDrain {
		t.Errorf("uncontained DUE: %v/%v, want Critical/drain", h, rec)
	}
	if a.WindowCount(1, xid.UncontainedECC) != 1 {
		t.Error("Xid 95 missing from window")
	}
}

func TestAgentCrash(t *testing.T) {
	a := NewAgent("n1", AgentOptions{})
	a.ObserveCrash(7)
	if !a.Dead() {
		t.Fatal("agent alive after crash")
	}
	if h, rec := a.Health(7); h != Critical || rec != xid.RemedRetire {
		t.Errorf("crashed agent: %v/%v, want Critical/retire", h, rec)
	}
	// Dead agents ignore further observations.
	a.ObserveCorrected(8, 1)
	a.ObserveDUE(8, 2, false)
	a.ObserveCrash(8)
	events := a.Drain()
	if len(events) != 1 || events[0].Code != xid.OffTheBus {
		t.Errorf("dead agent outbox = %+v, want single Xid 79", events)
	}
}

func TestAgentWindowExpiry(t *testing.T) {
	a := NewAgent("n1", AgentOptions{})
	a.ObserveDUE(1, 5, false)
	if a.WindowCount(24, xid.DoubleBitECC) != 1 {
		t.Fatal("DUE missing inside window")
	}
	if a.WindowCount(30, xid.DoubleBitECC) != 0 {
		t.Error("DUE still visible after the window rolled past it")
	}
	if h, _ := a.Health(30); h != Healthy {
		// The DUE budget is cumulative; with budget left the agent
		// should read healthy once the window is clean.
		t.Errorf("agent %v after window expiry, want Healthy", h)
	}
}

func TestWindowRing(t *testing.T) {
	w := newWindow(3)
	w.add(0, xid.ContainedECC, 1)
	w.add(1, xid.ContainedECC, 2)
	w.add(2, xid.ContainedECC, 3)
	if got := w.total(2, xid.ContainedECC); got != 6 {
		t.Errorf("window total at h=2: %d, want 6", got)
	}
	// Hour 3 reuses hour 0's slot.
	w.add(3, xid.ContainedECC, 10)
	if got := w.total(3, xid.ContainedECC); got != 15 {
		t.Errorf("window total at h=3: %d, want 2+3+10=15", got)
	}
	// A far-future total sees nothing.
	if got := w.total(100, xid.ContainedECC); got != 0 {
		t.Errorf("stale window total = %d, want 0", got)
	}
}

// TestAgentObserveHealthAllocs pins an agent's per-error path
// allocation-free once its outbox holds the event's stream: dedup keys
// are structs and Health reads the window's running sums.
func TestAgentObserveHealthAllocs(t *testing.T) {
	a := NewAgent("n1", AgentOptions{})
	at := 1.0
	var health Health
	observe := func() {
		a.ObserveCorrected(at, 7)
		health, _ = a.Health(at)
		at += 0.01
	}
	for i := 0; i < 2*stormThreshold; i++ {
		observe() // remaps row 7 and fires hour 1's storm
	}
	if health != Degraded {
		t.Fatalf("warmed-up agent %v, want Degraded", health)
	}
	if allocs := testing.AllocsPerRun(200, observe); allocs != 0 {
		t.Errorf("ObserveCorrected + Health: %v allocations, want 0", allocs)
	}
}
