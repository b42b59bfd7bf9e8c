package resilience_test

// Graceful degradation is the policy this package's checkpoints and
// backoff serve: weak rows are retired to spares and a node that spends
// its DUE budget is drained. The policy lives in fleet.Agent (two
// constants and a counter); these tests pin it through the agent's
// exported surface, so they hold whatever the agent's internals become.

import (
	"testing"

	"hbm2ecc/internal/fleet"
	"hbm2ecc/internal/fleet/xid"
)

// codes counts drained events by Xid and records the row of each
// remap-related event.
func codes(events []xid.Event) (n map[int]int, rows map[int][]int64) {
	n, rows = map[int]int{}, map[int][]int64{}
	for _, e := range events {
		n[e.Code] += e.N()
		if e.Code == xid.RowRemapRecorded || e.Code == xid.RowRemapFailure {
			rows[e.Code] = append(rows[e.Code], e.Row)
		}
	}
	return n, rows
}

// TestRetirementThreshold checks the paper's §4 rule: a row is retired
// (Xid 63) at its second error, not its first, and errors on a retired
// row are ignored because the spare row is pristine.
func TestRetirementThreshold(t *testing.T) {
	a := fleet.NewAgent("n1", fleet.AgentOptions{})
	a.ObserveCorrected(1, 10)
	if n, _ := codes(a.Drain()); n[xid.RowRemapRecorded] != 0 {
		t.Fatal("row retired below threshold")
	}
	a.ObserveCorrected(1, 10)
	n, rows := codes(a.Drain())
	if n[xid.RowRemapRecorded] != 1 || len(rows[xid.RowRemapRecorded]) != 1 || rows[xid.RowRemapRecorded][0] != 10 {
		t.Fatalf("second error: remap events %d on rows %v, want 1 on row 10",
			n[xid.RowRemapRecorded], rows[xid.RowRemapRecorded])
	}
	if h, rec := a.Health(1); h != fleet.Degraded || rec != xid.RemedMonitor {
		t.Errorf("after retirement: %v/%v, want Degraded/monitor", h, rec)
	}
	a.ObserveCorrected(1, 10)
	a.ObserveCorrected(1, 10)
	n, _ = codes(a.Drain())
	if n[xid.RowRemapRecorded] != 0 || n[xid.RowRemapFailure] != 0 {
		t.Fatalf("retired row retired again: remaps %d, failures %d",
			n[xid.RowRemapRecorded], n[xid.RowRemapFailure])
	}
	if n[xid.ContainedECC] != 2 {
		t.Errorf("corrected errors on the retired row = %d, want 2 still reported", n[xid.ContainedECC])
	}
	if got := a.WindowCount(1, xid.RowRemapRecorded); got != 1 {
		t.Errorf("remap window = %d, want 1", got)
	}
}

// TestRetirementSpareExhaustion checks the spare pool: the first 64 rows
// to cross the threshold are retired, the next one fails its remap
// (Xid 64) and the node must be retired, and rows already on spares
// stay there.
func TestRetirementSpareExhaustion(t *testing.T) {
	const spares = 64
	a := fleet.NewAgent("n1", fleet.AgentOptions{})
	for row := int64(0); row < spares; row++ {
		a.ObserveCorrected(2, row)
		a.ObserveCorrected(2, row)
	}
	n, rows := codes(a.Drain())
	if n[xid.RowRemapRecorded] != spares || n[xid.RowRemapFailure] != 0 {
		t.Fatalf("filling the spares: remaps %d, failures %d, want %d and 0",
			n[xid.RowRemapRecorded], n[xid.RowRemapFailure], spares)
	}
	for i, row := range rows[xid.RowRemapRecorded] {
		if row != int64(i) {
			t.Fatalf("remapped rows %v, want 0..%d in order", rows[xid.RowRemapRecorded], spares-1)
		}
	}
	a.ObserveCorrected(2, 99)
	a.ObserveCorrected(2, 99)
	n, rows = codes(a.Drain())
	if n[xid.RowRemapRecorded] != 0 || n[xid.RowRemapFailure] != 1 || rows[xid.RowRemapFailure][0] != 99 {
		t.Fatalf("past the spares: remaps %d, failures %d on rows %v, want 0 and 1 on row 99",
			n[xid.RowRemapRecorded], n[xid.RowRemapFailure], rows[xid.RowRemapFailure])
	}
	if h, rec := a.Health(2); h != fleet.Critical || rec != xid.RemedRetire {
		t.Errorf("after spare exhaustion: %v/%v, want Critical/retire", h, rec)
	}
	a.ObserveCorrected(2, 0)
	if n, _ := codes(a.Drain()); n[xid.RowRemapRecorded] != 0 || n[xid.RowRemapFailure] != 0 {
		t.Errorf("a row on a spare lost it: remaps %d, failures %d",
			n[xid.RowRemapRecorded], n[xid.RowRemapFailure])
	}
}

// TestDegradeGuard checks the DUE budget: below it a DUE degrades the
// node and asks for a reset, at it the node is Critical and drained,
// and the spent budget outlives the health window.
func TestDegradeGuard(t *testing.T) {
	a := fleet.NewAgent("n1", fleet.AgentOptions{DUEBudget: 3})
	for i, row := range []int64{1, 2} {
		a.ObserveDUE(1, row, false)
		if h, rec := a.Health(1); h != fleet.Degraded || rec != xid.RemedReset {
			t.Fatalf("DUE %d of 3: %v/%v, want Degraded/reset", i+1, h, rec)
		}
	}
	a.ObserveDUE(1, 3, false)
	if h, rec := a.Health(1); h != fleet.Critical || rec != xid.RemedDrain {
		t.Fatalf("budget spent: %v/%v, want Critical/drain", h, rec)
	}
	a.ObserveDUE(1, 4, false)
	if h, rec := a.Health(1); h != fleet.Critical || rec != xid.RemedDrain {
		t.Errorf("past the budget: %v/%v, want Critical/drain", h, rec)
	}
	if a.WindowCount(30, xid.DoubleBitECC) != 0 {
		t.Fatal("DUEs still in the window after it rolled past them")
	}
	if h, rec := a.Health(30); h != fleet.Critical || rec != xid.RemedDrain {
		t.Errorf("budget forgotten with the window: %v/%v, want Critical/drain", h, rec)
	}
}
