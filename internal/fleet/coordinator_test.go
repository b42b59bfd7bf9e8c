package fleet

import (
	"fmt"
	"reflect"
	"testing"

	"hbm2ecc/internal/fleet/xid"
	"hbm2ecc/internal/obs"
)

func report(node string, seq uint64, at float64, events ...xid.Event) ReportRequest {
	return ReportRequest{NodeID: node, Seq: seq, AtHours: at, Health: "ok", Events: events}
}

func due(node string, at float64, row int64) xid.Event {
	return xid.Event{Node: node, Code: xid.DoubleBitECC, AtHours: at, Row: row}
}

func TestCoordinatorIngestAndRank(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{})
	if _, err := c.Report(report("quiet", 1, 10)); err != nil {
		t.Fatal(err)
	}
	// One DUE: enough to rank first, below the default drain threshold.
	resp, err := c.Report(report("noisy", 1, 10, due("noisy", 9, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Duplicate || resp.Command != "" {
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

func TestCoordinatorReplayIdempotent(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{})
	first := report("n1", 5, 10, due("n1", 9, 1))
	if _, err := c.Report(first); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Report(first) // retried frame, same seq
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Duplicate {
		t.Errorf("replay response = %+v, want duplicate", resp)
	}
	if got := c.Fleet(1).Ranked[0].Events; got != 1 {
		t.Errorf("events after replay = %d, want 1 (no double ingest)", got)
	}
	// Older seq is also a replay.
	if resp, _ := c.Report(report("n1", 3, 11)); !resp.Duplicate {
		t.Error("stale seq not flagged as duplicate")
	}
}

func TestCoordinatorLeaseExpiry(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{LeaseHours: 10})
	if _, err := c.Report(report("gone", 1, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Report(report("alive", 1, 0)); err != nil {
		t.Fatal(err)
	}
	// Time advances via the live node's reports; "gone" stays silent and
	// the amortized sweep expires it.
	for seq, at := uint64(2), 5.0; at <= 30; seq, at = seq+1, at+5 {
		if _, err := c.Report(report("alive", seq, at)); err != nil {
			t.Fatal(err)
		}
	}
	f := c.Fleet(10)
	if f.Offline != 1 || f.Online != 1 {
		t.Errorf("after lease expiry: %+v", f)
	}
	// A late report brings the node back online.
	if _, err := c.Report(report("gone", 2, 31)); err != nil {
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
	seq := uint64(1)
	drainOnce := func() {
		t.Helper()
		// Two DUEs in-window cross DrainScore.
		resp, err := c.Report(report("bad", seq, at, due("bad", at-0.5, 1), due("bad", at-0.25, 2)))
		if err != nil {
			t.Fatal(err)
		}
		seq++
		if resp.Command != CommandDrain {
			t.Fatalf("strike %d: command = %q, want drain (score path)", seq, resp.Command)
		}
		// Repair: the node reports again later with a clean window.
		at += coordWindowHours
		resp, err = c.Report(report("bad", seq, at))
		if err != nil {
			t.Fatal(err)
		}
		seq++
		if resp.Command != "" {
			t.Fatalf("returned node still commanded %q", resp.Command)
		}
		at += 1
	}
	for i := 0; i < policy.MaxDrains; i++ {
		drainOnce()
	}
	// Next strike: MaxDrains used up, escalate to retire.
	resp, err := c.Report(report("bad", seq, at, due("bad", at-0.5, 1), due("bad", at-0.25, 2)))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Command != CommandRetire {
		t.Fatalf("third strike command = %q, want retire", resp.Command)
	}
	// Retirement is terminal: later reports keep the retire command.
	resp, err = c.Report(report("bad", seq+1, at+24))
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
	req := report("sick", 1, 5)
	req.Health = "critical"
	req.Recommend = xid.RemedRetire.String()
	resp, err := c.Report(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Command != CommandRetire {
		t.Errorf("command = %q, want retire (FollowAgent)", resp.Command)
	}
}

// TestCoordinatorNodeTableBounded: an invalid frame is refused before
// ingest, and a new node past MaxNodes is refused; neither leaves a
// trace in the fleet.
func TestCoordinatorNodeTableBounded(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{MaxNodes: 2})
	empty := c.Fleet(0)
	unknownXid := report("n0", 1, 1, xid.Event{Node: "n0", Code: 13, AtHours: 1})
	for name, req := range map[string]ReportRequest{"empty node id": report("", 1, 1), "unknown xid": unknownXid} {
		if _, err := c.Report(req); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if n := c.NodeCount(); n != 0 {
			t.Errorf("%s: refused frame created %d nodes", name, n)
		}
		if f := c.Fleet(0); !reflect.DeepEqual(f, empty) {
			t.Errorf("%s: refused frame moved the fleet: %+v", name, f)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := c.Report(report(fmt.Sprintf("n%d", i), 1, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Report(report("n2", 1, 1)); err == nil {
		t.Fatal("third node accepted past MaxNodes=2")
	}
	// Known nodes still report fine.
	if _, err := c.Report(report("n0", 2, 2)); err != nil {
		t.Errorf("existing node rejected: %v", err)
	}
}

// TestCoordinatorFleetRanksEveryRequestedNode: Fleet(top) returns up to
// top nodes however large top is.
func TestCoordinatorFleetRanksEveryRequestedNode(t *testing.T) {
	const n = 1025
	c := NewCoordinator(CoordinatorOptions{})
	for i := 0; i < n; i++ {
		if _, err := c.Report(report(fmt.Sprintf("n%04d", i), 1, 1)); err != nil {
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

func TestCoordinatorMetricsGaugesTrackStatus(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{})
	if _, err := c.Report(report("ok", 1, 1)); err != nil {
		t.Fatal(err)
	}
	crash := xid.Event{Node: "dead", Code: xid.OffTheBus, AtHours: 1, Row: -1}
	if _, err := c.Report(report("dead", 1, 1, crash)); err != nil {
		t.Fatal(err)
	}
	snap := obs.Default.Snapshot()
	got := map[string]float64{}
	families := map[string]bool{}
	for _, fam := range snap.Families {
		families[fam.Name] = true
		if fam.Name != "fleet_nodes" {
			continue
		}
		for _, s := range fam.Series {
			got[s.Labels["status"]] = s.Value
		}
	}
	// Gauges are process-wide (other tests share the registry), so only
	// sanity-check consistency with this coordinator's own view.
	f := c.Fleet(0)
	if f.Online < 1 || f.Retired < 1 {
		t.Fatalf("fleet view = %+v, want >=1 online and retired", f)
	}
	if len(got) == 0 {
		t.Fatal("fleet_nodes gauge family missing from snapshot")
	}
	// Every -metrics dump of obs.Default carries the ingest families.
	for _, fam := range []string{"fleet_events_total", "fleet_reports_total", "fleet_ingest_seconds"} {
		if !families[fam] {
			t.Errorf("%s family missing from snapshot", fam)
		}
	}
}
