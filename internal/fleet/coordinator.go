package fleet

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"hbm2ecc/internal/fleet/xid"
	"hbm2ecc/internal/httpx"
	"hbm2ecc/internal/obs"
)

// Fleet-plane telemetry, exposed by any /metrics surface sharing the
// obs Default registry (fleetd serves its own).
var (
	mFleetNodes = obs.NewGauge("fleet_nodes",
		"Tracked nodes by status.", "status")
	mFleetSimHours = obs.NewGauge("fleet_sim_hours",
		"Latest simulated fleet time observed in a report.").With()
	mFleetEvents = obs.NewCounter("fleet_events_total",
		"Ingested health events by Xid code.", "xid")
	mFleetReports = obs.NewCounter("fleet_reports_total",
		"Node reports ingested.").With()
	mFleetReplays = obs.NewCounter("fleet_report_replays_total",
		"Replayed (stale-sequence) reports acknowledged without ingest.").With()
	mFleetRejected = obs.NewCounter("fleet_reports_rejected_total",
		"Reports rejected (validation failure or node-table overflow).").With()
	mFleetCommands = obs.NewCounter("fleet_commands_total",
		"Remediation commands issued to nodes.", "command")
	mFleetExpiries = obs.NewCounter("fleet_lease_expiries_total",
		"Nodes marked offline after their liveness lease expired.").With()
	mFleetIngest = obs.NewHistogram("fleet_ingest_seconds",
		"Report ingest latency.", obs.ExpBuckets(1e-6, 2, 18))
	mFleetIngestH = mFleetIngest.With()
)

// Node lifecycle states, coordinator view.
const (
	nodeOnline = iota
	nodeOffline
	nodeDraining
	nodeRetired
)

func statusString(s int) string {
	switch s {
	case nodeOnline:
		return "online"
	case nodeOffline:
		return "offline"
	case nodeDraining:
		return "draining"
	case nodeRetired:
		return "retired"
	default:
		return "unknown"
	}
}

// CoordinatorOptions configures the fleet coordinator.
type CoordinatorOptions struct {
	// LeaseHours is the liveness lease: an online node that has not
	// reported for this many simulated hours is swept to offline
	// (default 12).
	LeaseHours float64
	// MaxNodes bounds the node table; reports from new nodes past the
	// bound are rejected (default 20000). This is the coordinator's
	// hard memory ceiling: per-node state is fixed-size.
	MaxNodes int
}

// Fixed coordinator bounds: the per-node rolling window in simulated
// hours (bucketed per hour), and the sizes of the per-node and
// fleet-wide recent-event rings.
const (
	coordWindowHours = 48
	eventRingSize    = 8
	fleetRingSize    = 256
)

func (o *CoordinatorOptions) defaults() {
	if o.LeaseHours <= 0 {
		o.LeaseHours = 12
	}
	if o.MaxNodes <= 0 {
		o.MaxNodes = 20000
	}
}

// nodeState is the coordinator's bounded per-node record: a fixed-size
// rolling window, a fixed-size recent-event ring, and scalars. Nothing
// here grows with event volume.
type nodeState struct {
	id        string
	seq       uint64
	lastSeen  float64
	status    int
	health    Health
	recommend string
	command   string
	score     float64
	drains    int
	events    int64
	win       *window
	ring      []xid.Event
	ringLen   int
	ringNext  int
}

func (n *nodeState) pushEvent(e xid.Event) {
	n.ring[n.ringNext] = e
	n.ringNext = (n.ringNext + 1) % len(n.ring)
	if n.ringLen < len(n.ring) {
		n.ringLen++
	}
}

// recent returns the ring's events oldest-first.
func (n *nodeState) recent() []xid.Event {
	out := make([]xid.Event, 0, n.ringLen)
	start := n.ringNext - n.ringLen
	if start < 0 {
		start += len(n.ring)
	}
	for i := 0; i < n.ringLen; i++ {
		out = append(out, n.ring[(start+i)%len(n.ring)])
	}
	return out
}

// Coordinator ingests node report streams, tracks liveness through
// simulated-time leases, maintains bounded per-node rolling windows,
// and issues policy-driven remediation commands. All exported methods
// are safe for concurrent use.
type Coordinator struct {
	opts CoordinatorOptions

	mu        sync.Mutex
	nodes     map[string]*nodeState
	simHours  float64
	lastSweep float64
	fleetRing []xid.Event
	fleetLen  int
	fleetNext int
	// statusCount tracks nodes per lifecycle state incrementally, so
	// the per-status gauges never need an O(nodes) scan on the ingest
	// path; statusGauge caches the handles.
	statusCount [4]int
	statusGauge [4]*obs.Gauge
	// perXid caches counter handles (label resolution off the hot path).
	perXid map[int]*obs.Counter
}

// NewCoordinator builds an empty coordinator.
func NewCoordinator(opts CoordinatorOptions) *Coordinator {
	opts.defaults()
	c := &Coordinator{
		opts:      opts,
		nodes:     make(map[string]*nodeState),
		fleetRing: make([]xid.Event, fleetRingSize),
		perXid:    make(map[int]*obs.Counter, 8),
	}
	for _, code := range xid.Codes() {
		c.perXid[code] = mFleetEvents.With(strconv.Itoa(code))
	}
	for s := range c.statusGauge {
		c.statusGauge[s] = mFleetNodes.With(statusString(s))
		c.statusGauge[s].Set(0)
	}
	return c
}

// setStatusLocked moves a node between lifecycle states, keeping the
// incremental per-status counts and gauges consistent.
func (c *Coordinator) setStatusLocked(n *nodeState, status int) {
	if n.status == status {
		return
	}
	c.statusCount[n.status]--
	c.statusGauge[n.status].Set(float64(c.statusCount[n.status]))
	n.status = status
	c.statusCount[status]++
	c.statusGauge[status].Set(float64(c.statusCount[status]))
}

// Reporter is where a node agent's report frames go. Every agent in
// the repository reports in-process through a Coordinator's Loopback;
// external agents POST the same frames to the HTTP surface.
type Reporter interface {
	Report(ctx context.Context, req ReportRequest) (ReportResponse, error)
}

type inprocReporter struct{ c *Coordinator }

func (r inprocReporter) Report(_ context.Context, req ReportRequest) (ReportResponse, error) {
	return r.c.Report(req)
}

// Loopback wraps the coordinator as an in-process Reporter. A refused
// report comes back with the coordinator's error as is.
func (c *Coordinator) Loopback() Reporter { return inprocReporter{c} }

// Report ingests one node report: lease renewal, event ingest into the
// rolling window and rings, re-scoring, and the policy decision. The
// returned error means the report was rejected (HTTP 422).
func (c *Coordinator) Report(req ReportRequest) (ReportResponse, error) {
	if err := req.Validate(); err != nil {
		mFleetRejected.Inc()
		return ReportResponse{}, err
	}
	return c.ingest(req)
}

// ingest is Report for a frame that already passed Validate.
func (c *Coordinator) ingest(req ReportRequest) (ReportResponse, error) {
	start := time.Now()
	c.mu.Lock()
	defer func() {
		c.mu.Unlock()
		mFleetIngestH.Observe(time.Since(start).Seconds())
	}()

	n := c.nodes[req.NodeID]
	if n == nil {
		if len(c.nodes) >= c.opts.MaxNodes {
			mFleetRejected.Inc()
			return ReportResponse{}, fmt.Errorf("fleet: node table full (%d nodes)", c.opts.MaxNodes)
		}
		n = &nodeState{
			id:   req.NodeID,
			win:  newWindow(coordWindowHours),
			ring: make([]xid.Event, eventRingSize),
		}
		c.nodes[req.NodeID] = n
		c.statusCount[nodeOnline]++
		c.statusGauge[nodeOnline].Set(float64(c.statusCount[nodeOnline]))
	}

	resp := ReportResponse{Version: ProtocolVersion, LeaseHours: c.opts.LeaseHours}
	if req.Seq <= n.seq {
		// Redelivery of an ingested report: acknowledged, not re-applied.
		mFleetReplays.Inc()
		resp.Duplicate = true
		resp.Command = n.command
		return resp, nil
	}
	if req.AtHours > c.simHours {
		c.simHours = req.AtHours
		mFleetSimHours.Set(c.simHours)
	}
	// Periodic lease sweep, amortized over reports: at most one O(nodes)
	// scan per quarter lease.
	if c.simHours-c.lastSweep >= c.opts.LeaseHours/4 {
		c.sweepLocked()
	}
	n.seq = req.Seq
	n.lastSeen = req.AtHours
	n.health, _ = HealthFromString(req.Health)
	n.recommend = req.Recommend

	for i := range req.Events {
		e := req.Events[i]
		n.events += int64(e.N())
		n.win.add(int64(e.AtHours), e.Code, e.N())
		n.pushEvent(e)
		c.fleetRing[c.fleetNext] = e
		c.fleetNext = (c.fleetNext + 1) % len(c.fleetRing)
		if c.fleetLen < len(c.fleetRing) {
			c.fleetLen++
		}
		c.perXid[e.Code].Add(uint64(e.N()))
	}
	resp.Accepted = len(req.Events)
	mFleetReports.Inc()

	// A draining node reporting again has been repaired and returned to
	// service; it re-earns its command from a clean slate. Retirement is
	// terminal.
	if n.status == nodeDraining {
		n.command = ""
	}
	if n.status != nodeRetired {
		c.setStatusLocked(n, nodeOnline)
	}

	n.score = policy.Score(c.windowCountsLocked(n))
	if n.status != nodeRetired {
		rec, _ := remediationFromString(req.Recommend)
		cmd := policy.Decide(n.score, rec)
		// Strikes rule: a node that keeps re-earning drains after repair
		// is not repairable — retire it instead of cycling capacity.
		if cmd == CommandDrain && n.drains >= policy.MaxDrains {
			cmd = CommandRetire
		}
		if cmd != "" && cmd != n.command {
			n.command = cmd
			mFleetCommands.With(cmd).Inc()
			switch cmd {
			case CommandRetire:
				c.setStatusLocked(n, nodeRetired)
			case CommandDrain:
				c.setStatusLocked(n, nodeDraining)
				n.drains++
			}
		}
	}
	resp.Command = n.command
	return resp, nil
}

func remediationFromString(s string) (xid.Remediation, bool) {
	for _, r := range [...]xid.Remediation{xid.RemedNone, xid.RemedMonitor, xid.RemedReset, xid.RemedDrain, xid.RemedRetire} {
		if r.String() == s {
			return r, true
		}
	}
	return xid.RemedNone, false
}

func (c *Coordinator) windowCountsLocked(n *nodeState) map[int]int {
	h := int64(c.simHours)
	out := make(map[int]int, len(n.win.codes))
	for _, code := range n.win.codes {
		if t := n.win.total(h, code); t > 0 {
			out[code] = t
		}
	}
	return out
}

// sweepLocked expires liveness leases: online nodes silent for more
// than LeaseHours of simulated time become offline. Report calls it
// every quarter lease of simulated time.
func (c *Coordinator) sweepLocked() {
	c.lastSweep = c.simHours
	for _, n := range c.nodes {
		if n.status == nodeOnline && c.simHours-n.lastSeen > c.opts.LeaseHours {
			c.setStatusLocked(n, nodeOffline)
			mFleetExpiries.Inc()
		}
	}
}

// SimHours returns the latest simulated time seen in any report.
func (c *Coordinator) SimHours() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.simHours
}

// NodeCount returns the tracked-node total.
func (c *Coordinator) NodeCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.nodes)
}

// Fleet returns the ranked fleet snapshot: status counts plus the top
// nodes by descending predicted-failure score.
func (c *Coordinator) Fleet(top int) FleetResponse {
	if top <= 0 {
		top = 10
	}
	if top > MaxTopNodes {
		top = MaxTopNodes
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	resp := FleetResponse{
		Version:  ProtocolVersion,
		SimHours: c.simHours,
		Total:    len(c.nodes),
		Online:   c.statusCount[nodeOnline],
		Offline:  c.statusCount[nodeOffline],
		Draining: c.statusCount[nodeDraining],
		Retired:  c.statusCount[nodeRetired],
	}
	ranked := make([]*nodeState, 0, len(c.nodes))
	for _, n := range c.nodes {
		ranked = append(ranked, n)
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].score != ranked[j].score {
			return ranked[i].score > ranked[j].score
		}
		return ranked[i].id < ranked[j].id
	})
	if len(ranked) > top {
		ranked = ranked[:top]
	}
	for _, n := range ranked {
		s := NodeSummary{
			ID:            n.id,
			Status:        statusString(n.status),
			Health:        n.health.String(),
			Score:         n.score,
			LastSeenHours: n.lastSeen,
			Recommend:     n.recommend,
			Command:       n.command,
			Events:        n.events,
		}
		if w := c.windowCountsLocked(n); len(w) > 0 {
			s.Window = make(map[string]int, len(w))
			for code, k := range w {
				s.Window[strconv.Itoa(code)] = k
			}
		}
		resp.Ranked = append(resp.Ranked, s)
	}
	return resp
}

// Events returns recent events, oldest first: the per-node ring when
// node is set, the fleet-wide ring otherwise; code > 0 filters by Xid.
func (c *Coordinator) Events(node string, code, limit int) EventsResponse {
	if limit <= 0 {
		limit = 64
	}
	if limit > MaxTopNodes {
		limit = MaxTopNodes
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var src []xid.Event
	if node != "" {
		if n := c.nodes[node]; n != nil {
			src = n.recent()
		}
	} else {
		src = make([]xid.Event, 0, c.fleetLen)
		start := c.fleetNext - c.fleetLen
		if start < 0 {
			start += len(c.fleetRing)
		}
		for i := 0; i < c.fleetLen; i++ {
			src = append(src, c.fleetRing[(start+i)%len(c.fleetRing)])
		}
	}
	resp := EventsResponse{Version: ProtocolVersion, Events: []xid.Event{}}
	for _, e := range src {
		if code > 0 && e.Code != code {
			continue
		}
		resp.Events = append(resp.Events, e)
	}
	if len(resp.Events) > limit {
		resp.Events = resp.Events[len(resp.Events)-limit:]
	}
	return resp
}

// Command returns the coordinator's standing command for a node ("",
// "drain", "retire"), for tests and the simulator's bookkeeping.
func (c *Coordinator) Command(node string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := c.nodes[node]; n != nil {
		return n.command
	}
	return ""
}

// Handler returns the coordinator's HTTP surface (see protocol.go for
// the endpoint list).
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/report", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpx.Error(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		body, err := httpx.ReadBody(r, MaxFrame)
		if err != nil {
			httpx.Error(w, http.StatusBadRequest, err.Error())
			return
		}
		// DecodeReportRequest validates the frame, so it goes straight
		// to ingest.
		req, err := DecodeReportRequest(body)
		if err != nil {
			mFleetRejected.Inc()
			httpx.Error(w, http.StatusBadRequest, err.Error())
			return
		}
		resp, err := c.ingest(req)
		if err != nil {
			httpx.Error(w, http.StatusUnprocessableEntity, err.Error())
			return
		}
		httpx.WriteJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("/v1/fleet", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			httpx.Error(w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		top, _ := strconv.Atoi(r.URL.Query().Get("top"))
		httpx.WriteJSON(w, http.StatusOK, c.Fleet(top))
	})
	mux.HandleFunc("/v1/fleet/events", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			httpx.Error(w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		q := r.URL.Query()
		code, _ := strconv.Atoi(q.Get("xid"))
		limit, _ := strconv.Atoi(q.Get("limit"))
		httpx.WriteJSON(w, http.StatusOK, c.Events(q.Get("node"), code, limit))
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = obs.Default.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		f := c.Fleet(0)
		httpx.WriteJSON(w, http.StatusOK, map[string]any{
			"status":    "ok",
			"nodes":     f.Total,
			"online":    f.Online,
			"sim_hours": f.SimHours,
		})
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("fleetd: fleet health coordinator\n" +
			"endpoints: /v1/report /v1/fleet /v1/fleet/events /metrics /healthz\n"))
	})
	return mux
}
