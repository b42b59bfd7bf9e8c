package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
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
	if resp.Accepted != 1 || resp.Duplicate {
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
	if f.Ranked[0].Window["48"] != 1 {
		t.Errorf("noisy window = %v, want 1 Xid 48", f.Ranked[0].Window)
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
	if !resp.Duplicate || resp.Accepted != 0 {
		t.Errorf("replay response = %+v, want duplicate/0 accepted", resp)
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

func TestCoordinatorNodeTableBounded(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{MaxNodes: 2})
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

func TestCoordinatorEventRings(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{})
	var events []xid.Event
	for i := 0; i < fleetRingSize+3; i++ {
		events = append(events, due("n1", 5, int64(i)))
	}
	if _, err := c.Report(ReportRequest{NodeID: "n1", Seq: 1, AtHours: 5, Health: "ok", Events: events}); err != nil {
		t.Fatal(err)
	}
	last := int64(fleetRingSize + 2)
	per := c.Events("n1", 0, MaxTopNodes)
	if len(per.Events) != eventRingSize || per.Events[eventRingSize-1].Row != last {
		t.Errorf("per-node ring = %+v, want last %d events", per.Events, eventRingSize)
	}
	all := c.Events("", 0, MaxTopNodes)
	if len(all.Events) != fleetRingSize || all.Events[fleetRingSize-1].Row != last {
		t.Errorf("fleet ring holds %d events, want the last %d", len(all.Events), fleetRingSize)
	}
	if got := c.Events("", xid.ContainedECC, 0); len(got.Events) != 0 {
		t.Errorf("xid filter returned %+v", got.Events)
	}
	if got := c.Events("unknown-node", 0, 0); len(got.Events) != 0 {
		t.Errorf("unknown node returned %+v", got.Events)
	}
}

// TestCoordinatorEventsLimitCapped: a limit past MaxTopNodes is capped,
// the way Fleet caps top, so asking for more never returns fewer.
func TestCoordinatorEventsLimitCapped(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{})
	var events []xid.Event
	for i := 0; i < fleetRingSize; i++ {
		events = append(events, due("n1", 5, int64(i)))
	}
	if _, err := c.Report(ReportRequest{NodeID: "n1", Seq: 1, AtHours: 5, Health: "ok", Events: events}); err != nil {
		t.Fatal(err)
	}
	for _, limit := range []int{fleetRingSize, 5000} {
		if got := c.Events("", 0, limit); len(got.Events) != fleetRingSize {
			t.Errorf("limit %d returned %d events from a full ring, want %d", limit, len(got.Events), fleetRingSize)
		}
	}
	if got := c.Events("", 0, 0); len(got.Events) != 64 {
		t.Errorf("default limit returned %d events, want 64", len(got.Events))
	}
}

// TestCoordinatorHTTPSurface drives the wire API with a plain
// http.Client: report ingest with its status codes, the fleet and
// events reads, /metrics and /healthz.
func TestCoordinatorHTTPSurface(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{MaxNodes: 1})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	do := func(method, path, body string) (int, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, b
	}
	frame := func(req ReportRequest) string {
		t.Helper()
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	code, body := do(http.MethodPost, "/v1/report", frame(report("n1", 1, 3, due("n1", 2, 7))))
	var resp ReportResponse
	if code != http.StatusOK || json.Unmarshal(body, &resp) != nil || resp.Accepted != 1 || resp.Version != ProtocolVersion {
		t.Errorf("report: HTTP %d %s", code, body)
	}
	for _, tc := range []struct {
		name, method, body string
		want               int
	}{
		{"GET", http.MethodGet, "", http.StatusMethodNotAllowed},
		{"malformed frame", http.MethodPost, frame(report("", 1, 1)), http.StatusBadRequest},
		{"unknown field", http.MethodPost, `{"node_id":"n1","seq":2,"at_hours":4,"health":"ok","bogus":1}`, http.StatusBadRequest},
		{"node table full", http.MethodPost, frame(report("n2", 1, 4)), http.StatusUnprocessableEntity},
	} {
		if code, body := do(tc.method, "/v1/report", tc.body); code != tc.want {
			t.Errorf("%s: HTTP %d %s, want %d", tc.name, code, body, tc.want)
		}
	}

	code, body = do(http.MethodGet, "/v1/fleet?top=5", "")
	var f FleetResponse
	if code != http.StatusOK || json.Unmarshal(body, &f) != nil || f.Total != 1 || len(f.Ranked) != 1 || f.Ranked[0].ID != "n1" {
		t.Errorf("fleet: HTTP %d %s", code, body)
	}
	code, body = do(http.MethodGet, "/v1/fleet/events?node=n1&limit=5000", "")
	var ev EventsResponse
	if code != http.StatusOK || json.Unmarshal(body, &ev) != nil || len(ev.Events) != 1 || ev.Events[0].Row != 7 {
		t.Errorf("events: HTTP %d %s", code, body)
	}

	_, metrics := do(http.MethodGet, "/metrics", "")
	for _, fam := range []string{"fleet_nodes{", "fleet_events_total{", "fleet_reports_total", "fleet_ingest_seconds_bucket"} {
		if !strings.Contains(string(metrics), fam) {
			t.Errorf("/metrics missing %s", fam)
		}
	}
	if _, hz := do(http.MethodGet, "/healthz", ""); !strings.Contains(string(hz), `"status":"ok"`) {
		t.Errorf("/healthz = %s", hz)
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
	for _, fam := range snap.Families {
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
}
