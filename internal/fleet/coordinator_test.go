package fleet

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"hbm2ecc/internal/fleet/xid"
)

func report(node string, at float64, events ...xid.Event) ReportRequest {
	return ReportRequest{NodeID: node, AtHours: at, Events: events}
}

func due(node string, at float64, row int64) xid.Event {
	return xid.Event{Node: node, Code: xid.DoubleBitECC, AtHours: at, Row: row}
}

func TestCoordinatorIngestAndRank(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{})
	if _, err := c.Report(report("quiet", 10)); err != nil {
		t.Fatal(err)
	}
	// One DUE: enough to rank first, below the default drain threshold.
	resp, err := c.Report(report("noisy", 10, due("noisy", 9, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Command != "" {
		t.Errorf("ingest response = %+v", resp)
	}
	f := c.Fleet(10)
	if f.Total != 2 || f.Online != 2 {
		t.Errorf("fleet counts = %+v", f)
	}
	if len(f.Ranked) == 0 || f.Ranked[0].ID != "noisy" {
		t.Fatalf("ranked[0] = %+v, want noisy first", f.Ranked)
	}
	if f.Ranked[0].Score <= f.Ranked[1].Score {
		t.Errorf("noisy score %v !> quiet score %v", f.Ranked[0].Score, f.Ranked[1].Score)
	}
	if f.Ranked[0].Window["48"] != 1 || f.Ranked[0].Events != 1 {
		t.Errorf("noisy window = %v, events = %d, want 1 Xid 48", f.Ranked[0].Window, f.Ranked[0].Events)
	}
}

func TestCoordinatorLeaseExpiry(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{LeaseHours: 10})
	if _, err := c.Report(report("gone", 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Report(report("alive", 0)); err != nil {
		t.Fatal(err)
	}
	// Time advances via the live node's reports; "gone" stays silent and
	// the amortized sweep expires it.
	for at := 5.0; at <= 30; at += 5 {
		if _, err := c.Report(report("alive", at)); err != nil {
			t.Fatal(err)
		}
	}
	f := c.Fleet(10)
	if f.Offline != 1 || f.Online != 1 {
		t.Errorf("after lease expiry: %+v", f)
	}
	// A late report brings the node back online.
	if _, err := c.Report(report("gone", 31)); err != nil {
		t.Fatal(err)
	}
	if f := c.Fleet(10); f.Online != 2 || f.Offline != 0 {
		t.Errorf("after return: %+v", f)
	}
}

func TestCoordinatorPolicyDrainAndStrikes(t *testing.T) {
	// Two DUEs score 2x20, at the drain threshold of 40 and far below
	// the retire threshold of 200: only the strikes rule can retire.
	c := NewCoordinator(CoordinatorOptions{})
	at := 1.0
	strike := 0
	drainOnce := func() {
		t.Helper()
		// Two DUEs in-window cross DrainScore.
		resp, err := c.Report(report("bad", at, due("bad", at-0.5, 1), due("bad", at-0.25, 2)))
		if err != nil {
			t.Fatal(err)
		}
		strike++
		if resp.Command != CommandDrain {
			t.Fatalf("strike %d: command = %q, want drain (score path)", strike, resp.Command)
		}
		// Repair: the node reports again later with a clean window.
		at += coordWindowHours
		resp, err = c.Report(report("bad", at))
		if err != nil {
			t.Fatal(err)
		}
		if resp.Command != "" {
			t.Fatalf("returned node still commanded %q", resp.Command)
		}
		at += 1
	}
	for i := 0; i < policy.MaxDrains; i++ {
		drainOnce()
	}
	// Next strike: MaxDrains used up, escalate to retire.
	resp, err := c.Report(report("bad", at, due("bad", at-0.5, 1), due("bad", at-0.25, 2)))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Command != CommandRetire {
		t.Fatalf("third strike command = %q, want retire", resp.Command)
	}
	// Retirement is terminal: later reports keep the retire command.
	resp, err = c.Report(report("bad", at+24))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Command != CommandRetire {
		t.Errorf("retired node re-admitted: command %q", resp.Command)
	}
	if f := c.Fleet(1); f.Retired != 1 {
		t.Errorf("fleet retired count = %d", f.Retired)
	}
}

func TestCoordinatorFollowsAgentRecommendation(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{})
	req := report("sick", 5)
	req.Health = Critical
	req.Recommend = xid.RemedRetire
	resp, err := c.Report(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Command != CommandRetire {
		t.Errorf("command = %q, want retire (the agent's recommendation)", resp.Command)
	}
}

// TestCoordinatorNodeTableBounded: an invalid frame is refused before
// ingest, and a new node past MaxNodes is refused, even when it carries
// a known node's handle; neither leaves a trace in the fleet, and
// neither is answered with a handle.
func TestCoordinatorNodeTableBounded(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{MaxNodes: 2})
	empty := c.Fleet(0)
	unknownXid := report("n0", 1, xid.Event{Node: "n0", Code: 13, AtHours: 1})
	for name, req := range map[string]ReportRequest{"empty node id": report("", 1), "unknown xid": unknownXid} {
		resp, err := c.Report(req)
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
		if resp.Handle != 0 {
			t.Errorf("%s: refused frame answered with handle %d", name, resp.Handle)
		}
		if f := c.Fleet(0); f.Total != 0 || !reflect.DeepEqual(f, empty) {
			t.Errorf("%s: refused frame moved the fleet: %+v", name, f)
		}
	}
	var handle int
	for i := 0; i < 2; i++ {
		resp, err := c.Report(report(fmt.Sprintf("n%d", i), 1))
		if err != nil {
			t.Fatal(err)
		}
		handle = resp.Handle
	}
	full := c.Fleet(2)
	third := report("n2", 2, due("n2", 2, 1))
	third.Handle = handle
	resp, err := c.Report(third)
	if err == nil {
		t.Fatal("third node accepted past MaxNodes=2")
	}
	if resp.Handle != 0 {
		t.Errorf("refused third node answered with handle %d", resp.Handle)
	}
	if f := c.Fleet(2); !reflect.DeepEqual(f, full) {
		t.Errorf("refused third node moved the fleet: %+v, was %+v", f, full)
	}
	// Known nodes still report fine.
	if _, err := c.Report(report("n0", 2)); err != nil {
		t.Errorf("existing node rejected: %v", err)
	}
}

// TestCoordinatorFleetRanksEveryRequestedNode: Fleet(top) returns up to
// top nodes however large top is.
func TestCoordinatorFleetRanksEveryRequestedNode(t *testing.T) {
	const n = 1025
	c := NewCoordinator(CoordinatorOptions{})
	for i := 0; i < n; i++ {
		if _, err := c.Report(report(fmt.Sprintf("n%04d", i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	f := c.Fleet(n)
	if f.Total != n || len(f.Ranked) != n {
		t.Errorf("Fleet(%d) ranks %d of %d nodes", n, len(f.Ranked), f.Total)
	}
	if got := len(c.Fleet(n + 1).Ranked); got != n {
		t.Errorf("Fleet(%d) ranks %d nodes, want all %d", n+1, got, n)
	}
}

// TestReportAllocs pins the report path allocation-free: a heartbeat or
// a one-event frame from a known node, carrying its handle, scores from
// the node's running window sums without building any map.
func TestReportAllocs(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{})
	resp, err := c.Report(report("n1", 0))
	if err != nil {
		t.Fatal(err)
	}
	at := 0.0
	events := []xid.Event{{Node: "n1", Code: xid.ContainedECC}}
	for _, tc := range []struct {
		name   string
		events []xid.Event
	}{{"heartbeat", nil}, {"one event", events}} {
		allocs := testing.AllocsPerRun(200, func() {
			at += 0.5
			events[0].AtHours = at
			req := ReportRequest{NodeID: "n1", AtHours: at, Events: tc.events, Handle: resp.Handle}
			if _, err := c.Report(req); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s report: %v allocations, want 0", tc.name, allocs)
		}
	}
	if cmd := c.Fleet(1).Ranked[0].Command; cmd != "" {
		t.Errorf("corrected errors alone earned command %q", cmd)
	}
}

// summary returns node id's row of c's ranked fleet.
func summary(t *testing.T, c *Coordinator, id string) NodeSummary {
	t.Helper()
	for _, s := range c.Fleet(math.MaxInt).Ranked {
		if s.ID == id {
			return s
		}
	}
	t.Fatalf("node %q not in the fleet", id)
	return NodeSummary{}
}

// TestReportHandle: a frame whose handle is 0, out of range or another
// node's resolves by NodeID, changes only its own node and is answered
// with its own node's handle.
func TestReportHandle(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{})
	joined := map[string]int{}
	for _, id := range []string{"a", "b"} {
		resp, err := c.Report(report(id, 1))
		if err != nil {
			t.Fatal(err)
		}
		if resp.Handle <= 0 {
			t.Fatalf("%s joined with handle %d", id, resp.Handle)
		}
		joined[id] = resp.Handle
	}
	if joined["a"] == joined["b"] {
		t.Fatalf("a and b share handle %d", joined["a"])
	}
	b := summary(t, c, "b")
	frames, at := 0, 1.0
	for name, h := range map[string]int{"zero": 0, "out of range": 3, "negative": -1, "other node's": joined["b"]} {
		frames++
		at++
		req := report("a", at, due("a", at, int64(frames)))
		req.Handle = h
		resp, err := c.Report(req)
		if err != nil {
			t.Fatalf("%s handle: %v", name, err)
		}
		if resp.Handle != joined["a"] {
			t.Errorf("%s handle: answered with handle %d, want a's %d", name, resp.Handle, joined["a"])
		}
		if a := summary(t, c, "a"); a.Events != int64(frames) || a.LastSeenHours != at {
			t.Errorf("%s handle: a has %d events, last seen %v; want %d, %v", name, a.Events, a.LastSeenHours, frames, at)
		}
	}
	if got := summary(t, c, "b"); !reflect.DeepEqual(got, b) {
		t.Errorf("frames from a moved b: %+v, was %+v", got, b)
	}
	if n := c.Fleet(1).Total; n != 2 {
		t.Errorf("%d nodes, want 2", n)
	}
}

// TestReportConcurrentHandles: nodes that join and report from several
// goroutines at once, as obsd's devices do, each keep their own handle
// and every frame lands on its own node.
func TestReportConcurrentHandles(t *testing.T) {
	const nodes, reports = 8, 50
	c := NewCoordinator(CoordinatorOptions{})
	handles := make([]int, nodes)
	var wg sync.WaitGroup
	for i := range handles {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := fmt.Sprintf("n%d", i)
			for k := 1; k <= reports; k++ {
				at := float64(k)
				req := report(id, at, due(id, at, int64(k)))
				req.Handle = handles[i]
				resp, err := c.Report(req)
				if err != nil {
					t.Error(err)
					return
				}
				handles[i] = resp.Handle
			}
		}()
	}
	wg.Wait()
	seen := map[int]bool{}
	for i, h := range handles {
		if seen[h] {
			t.Errorf("handle %d handed out twice", h)
		}
		seen[h] = true
		if s := summary(t, c, fmt.Sprintf("n%d", i)); s.Events != reports {
			t.Errorf("%s ingested %d events, want %d", s.ID, s.Events, reports)
		}
	}
}

// TestFleetRankIgnoresJoinOrder: obsd's devices join concurrently, so
// Fleet must rank the same nodes the same way whatever order they
// joined in, ties included.
func TestFleetRankIgnoresJoinOrder(t *testing.T) {
	ids := []string{"n3", "n1", "n4", "n2"}
	fleet := func(order []string) FleetResponse {
		c := NewCoordinator(CoordinatorOptions{})
		for _, id := range order {
			req := report(id, 2)
			if id == "n4" {
				req = report(id, 2, due(id, 1, 1))
			}
			if _, err := c.Report(req); err != nil {
				t.Fatal(err)
			}
		}
		return c.Fleet(len(order))
	}
	want := fleet(ids)
	if got := fleet([]string{"n2", "n4", "n1", "n3"}); !reflect.DeepEqual(got, want) {
		t.Errorf("ranking depends on join order:\n%+v\n%+v", got, want)
	}
	if want.Ranked[0].ID != "n4" || want.Ranked[1].ID != "n1" || want.Ranked[3].ID != "n3" {
		t.Errorf("ranked %+v, want n4 first, then ties by id", want.Ranked)
	}
}
