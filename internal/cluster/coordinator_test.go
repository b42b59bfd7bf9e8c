package cluster

import (
	"fmt"
	"testing"
	"time"

	"hbm2ecc/internal/errormodel"
	"hbm2ecc/internal/evalmc"
)

// fakeClock drives the lease state machine deterministically.
type fakeClock struct{ now time.Time }

func (f *fakeClock) Now() time.Time          { return f.now }
func (f *fakeClock) Advance(d time.Duration) { f.now = f.now.Add(d) }

func newTestCoordinator(t *testing.T, clock *fakeClock) *Coordinator {
	t.Helper()
	c, err := NewCoordinator(CoordinatorOptions{
		Spec:     testSpec(),
		LeaseTTL: time.Second,
		Clock:    clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// resultFor fabricates a count-consistent result for a cell under the
// test spec (contents don't matter to the state machine, only totals).
func resultFor(c *Coordinator, cell Cell) evalmc.PatternResult {
	n := evalmc.CellTrials(cell.PatternP(), c.Spec().Options())
	return evalmc.PatternResult{
		Pattern:    cell.PatternP(),
		Exhaustive: errormodel.EnumerableCount(cell.PatternP()) >= 0,
		N:          n,
		DCE:        n,
	}
}

func TestLeaseOrderIsLPT(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1000, 0)}
	c := newTestCoordinator(t, clock)
	resp := c.Lease(LeaseRequest{WorkerID: "w1", MaxCells: 3})
	if len(resp.Leases) != 3 {
		t.Fatalf("granted %d leases, want 3", len(resp.Leases))
	}
	// Heaviest first: the 2-Bits exhaustive class (39888 trials)
	// dominates the 1000-sample cells for every scheme.
	for i, l := range resp.Leases {
		if l.Cell.PatternP() != errormodel.Bits2 {
			t.Fatalf("lease %d is %s, want 2 Bits (LPT order)", i, l.Cell.PatternP())
		}
	}
	if resp.Spec == nil || !resp.Spec.Equal(&Spec{
		Schemes: testSpec().Schemes, Seed: 2021,
		Samples3b: 1000, SamplesBeat: 1000, SamplesEntry: 1000, Shards: 1,
	}) {
		t.Fatalf("lease response spec = %+v", resp.Spec)
	}
}

// TestLeaseRedeliveryIsIdempotent: a lease request delivered twice
// (same Seq) gets the first answer back and grants nothing new, so no
// phantom lease is left to expire against the worker's budget.
func TestLeaseRedeliveryIsIdempotent(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1000, 0)}
	c := newTestCoordinator(t, clock)
	first := c.Lease(LeaseRequest{WorkerID: "w1", Seq: 1})
	again := c.Lease(LeaseRequest{WorkerID: "w1", Seq: 1})
	if len(first.Leases) != 1 || len(again.Leases) != 1 || again.Leases[0] != first.Leases[0] {
		t.Fatalf("redelivery answered %+v, first answer %+v", again.Leases, first.Leases)
	}
	if st := c.Status(); st.Leased != 1 {
		t.Fatalf("%d cells leased after a redelivered request, want 1", st.Leased)
	}
	if next := c.Lease(LeaseRequest{WorkerID: "w1", Seq: 2}); len(next.Leases) != 1 || next.Leases[0] == first.Leases[0] {
		t.Fatalf("next request answered %+v", next.Leases)
	}
}

func TestLeaseExpiryRequeuesAndBacksOff(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1000, 0)}
	c := newTestCoordinator(t, clock)

	resp := c.Lease(LeaseRequest{WorkerID: "w1"})
	if len(resp.Leases) != 1 {
		t.Fatalf("granted %d leases", len(resp.Leases))
	}
	leased := resp.Leases[0]

	// Within TTL nothing happens.
	c.Sweep()
	if st := c.Status(); st.Requeues != 0 {
		t.Fatalf("requeued before expiry: %+v", st)
	}

	// Past TTL the cell re-queues and the worker is backed off.
	clock.Advance(2 * time.Second)
	c.Sweep()
	st := c.Status()
	if st.Requeues != 1 || st.Leased != 0 {
		t.Fatalf("after expiry: %+v", st)
	}
	resp = c.Lease(LeaseRequest{WorkerID: "w1"})
	if !resp.Wait || len(resp.Leases) != 0 {
		t.Fatalf("backed-off worker got %+v", resp)
	}
	// Another worker can take the re-queued cell immediately — and gets
	// the same heaviest cell back.
	resp = c.Lease(LeaseRequest{WorkerID: "w2"})
	if len(resp.Leases) != 1 || resp.Leases[0].Cell != leased.Cell {
		t.Fatalf("w2 lease = %+v, want cell %+v", resp, leased.Cell)
	}
	if resp.Leases[0].ID == leased.ID {
		t.Fatal("re-queued cell re-leased under the same lease id")
	}
}

func TestWorkerEvictionAfterBudget(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1000, 0)}
	c := newTestCoordinator(t, clock)

	for i := 0; i < failureBudget; i++ {
		// Exhaust any backoff, lease a cell, let it expire.
		clock.Advance(time.Minute)
		resp := c.Lease(LeaseRequest{WorkerID: "bad"})
		if len(resp.Leases) != 1 {
			t.Fatalf("round %d: lease = %+v", i, resp)
		}
		clock.Advance(2 * time.Second)
		c.Sweep()
	}
	st := c.Status()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1 (status %+v)", st.Evictions, st)
	}
	clock.Advance(time.Hour)
	resp := c.Lease(LeaseRequest{WorkerID: "bad"})
	if !resp.Evicted {
		t.Fatalf("evicted worker got %+v", resp)
	}
	// Healthy workers are unaffected.
	if resp := c.Lease(LeaseRequest{WorkerID: "good"}); len(resp.Leases) != 1 {
		t.Fatalf("healthy worker got %+v", resp)
	}
}

func TestIdempotentDoubleCompletion(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1000, 0)}
	c := newTestCoordinator(t, clock)

	resp := c.Lease(LeaseRequest{WorkerID: "w1"})
	lease := resp.Leases[0]
	res := resultFor(c, lease.Cell)

	cr, err := c.Complete(CompleteRequest{
		WorkerID: "w1", LeaseID: lease.ID, Cell: lease.Cell, Result: res, ElapsedNS: 1e6,
	})
	if err != nil || !cr.Accepted || cr.Duplicate || cr.Stale {
		t.Fatalf("first completion: %+v err=%v", cr, err)
	}

	// Identical duplicate: accepted, flagged, no conflict.
	cr, err = c.Complete(CompleteRequest{
		WorkerID: "w2", LeaseID: "stale", Cell: lease.Cell, Result: res, ElapsedNS: 1e6,
	})
	if err != nil || !cr.Accepted || !cr.Duplicate {
		t.Fatalf("identical duplicate: %+v err=%v", cr, err)
	}

	// Disagreeing duplicate: rejected, conflict counted, first kept.
	bad := res
	bad.DCE--
	bad.SDC++
	cr, err = c.Complete(CompleteRequest{
		WorkerID: "w3", LeaseID: "stale2", Cell: lease.Cell, Result: bad, ElapsedNS: 1e6,
	})
	if err != nil || cr.Accepted || !cr.Duplicate {
		t.Fatalf("conflicting duplicate: %+v err=%v", cr, err)
	}
	if st := c.Status(); st.Conflicts != 1 {
		t.Fatalf("conflicts = %d, want 1", st.Conflicts)
	}
}

func TestStaleLeaseResultStillAccepted(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1000, 0)}
	c := newTestCoordinator(t, clock)

	resp := c.Lease(LeaseRequest{WorkerID: "w1"})
	lease := resp.Leases[0]

	// Expire and re-queue the lease, then let the original worker's
	// late result land: deterministic work is work.
	clock.Advance(2 * time.Second)
	c.Sweep()
	cr, err := c.Complete(CompleteRequest{
		WorkerID: "w1", LeaseID: lease.ID, Cell: lease.Cell,
		Result: resultFor(c, lease.Cell), ElapsedNS: 1e6,
	})
	if err != nil || !cr.Accepted || !cr.Stale {
		t.Fatalf("stale completion: %+v err=%v", cr, err)
	}
	if st := c.Status(); st.Done != 1 {
		t.Fatalf("status after stale completion: %+v", st)
	}
}

func TestCompletionCountValidation(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1000, 0)}
	c := newTestCoordinator(t, clock)
	resp := c.Lease(LeaseRequest{WorkerID: "w1"})
	lease := resp.Leases[0]
	res := resultFor(c, lease.Cell)
	res.N--
	res.DCE--
	if _, err := c.Complete(CompleteRequest{
		WorkerID: "w1", LeaseID: lease.ID, Cell: lease.Cell, Result: res,
	}); err == nil {
		t.Fatal("short-count completion accepted")
	}
	// The broken worker was charged a failure.
	if st := c.Status(); len(st.Workers) != 1 || st.Workers[0].Failures != 1 {
		t.Fatalf("worker accounting: %+v", st.Workers)
	}
}

func TestPoisonedCellFailsCampaign(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1000, 0)}
	c := newTestCoordinator(t, clock)
	// The expiries are spread over several workers so that none of them
	// spends its failure budget before the cell is poisoned.
	for i := 0; i < maxCellAttempts; i++ {
		clock.Advance(time.Hour) // clear backoff
		resp := c.Lease(LeaseRequest{WorkerID: fmt.Sprintf("crashy%d", i%(failureBudget-1))})
		if len(resp.Leases) == 0 {
			t.Fatalf("round %d: no lease: %+v", i, resp)
		}
		clock.Advance(2 * time.Second)
		c.Sweep()
	}
	select {
	case <-c.Done():
	default:
		t.Fatal("campaign not closed after poisoned cell")
	}
	if err := c.Err(); err == nil {
		t.Fatal("no campaign failure recorded")
	}
	if _, err := c.Results(); err == nil {
		t.Fatal("Results succeeded on failed campaign")
	}
}

func TestResumeSkipsCompletedCells(t *testing.T) {
	spec := testSpec()
	ckpt := evalmc.NewCheckpoint(spec.Options())
	// Pre-complete every cell of the first scheme.
	for p := errormodel.Bit1; p < errormodel.NumPatterns; p++ {
		n := evalmc.CellTrials(p, spec.Options())
		ckpt.Store(spec.Schemes[0], p, evalmc.PatternResult{
			Pattern: p, Exhaustive: errormodel.EnumerableCount(p) >= 0, N: n, DCE: n,
		})
	}
	clock := &fakeClock{now: time.Unix(1000, 0)}
	c, err := NewCoordinator(CoordinatorOptions{
		Spec:   spec,
		Resume: ckpt.Lookup,
		Clock:  clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := c.Status()
	np := int(errormodel.NumPatterns)
	if st.Done != np || st.Pending != 2*np {
		t.Fatalf("resumed status: %+v", st)
	}
	// Resumed cells are never leased again.
	resp := c.Lease(LeaseRequest{WorkerID: "w1", MaxCells: MaxLeaseCells})
	for _, l := range resp.Leases {
		if l.Cell.Scheme == spec.Schemes[0] {
			t.Fatalf("resumed cell leased: %+v", l.Cell)
		}
	}
}
