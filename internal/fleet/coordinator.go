package fleet

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"hbm2ecc/internal/fleet/xid"
	"hbm2ecc/internal/obs"
)

// Fleet-plane telemetry on the obs Default registry, read by any
// -metrics dump of it.
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

// coordWindowHours is the per-node rolling window in simulated hours
// (bucketed per hour).
const coordWindowHours = 48

func (o *CoordinatorOptions) defaults() {
	if o.LeaseHours <= 0 {
		o.LeaseHours = 12
	}
	if o.MaxNodes <= 0 {
		o.MaxNodes = 20000
	}
}

// nodeState is the coordinator's bounded per-node record: a fixed-size
// rolling window and scalars. Nothing here grows with event volume.
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
		opts:   opts,
		nodes:  make(map[string]*nodeState),
		perXid: make(map[int]*obs.Counter, 8),
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
// the repository reports in-process through a Coordinator's Loopback.
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

// Report ingests one node report: validation, lease renewal, event
// ingest into the rolling window, re-scoring, and the policy decision.
// The returned error means the report was rejected; it changed no
// node or fleet state.
func (c *Coordinator) Report(req ReportRequest) (ReportResponse, error) {
	if err := req.Validate(); err != nil {
		mFleetRejected.Inc()
		return ReportResponse{}, err
	}
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
		n = &nodeState{id: req.NodeID, win: newWindow(coordWindowHours)}
		c.nodes[req.NodeID] = n
		c.statusCount[nodeOnline]++
		c.statusGauge[nodeOnline].Set(float64(c.statusCount[nodeOnline]))
	}

	if req.Seq <= n.seq {
		// Redelivery of an ingested report: acknowledged, not re-applied.
		mFleetReplays.Inc()
		return ReportResponse{Duplicate: true, Command: n.command}, nil
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
		c.perXid[e.Code].Add(uint64(e.N()))
	}
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
	return ReportResponse{Command: n.command}, nil
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
