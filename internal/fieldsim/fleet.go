package fieldsim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"hbm2ecc/internal/core"
	"hbm2ecc/internal/errormodel"
	"hbm2ecc/internal/fleet"
	"hbm2ecc/internal/stats"
	"hbm2ecc/internal/sysrel"
)

// This file grows the single-fleet MTTI/MTTF estimator (fieldsim.go)
// into a datacenter-scale field simulation: tens of thousands of GPU
// nodes accumulating soft errors over simulated months, each running a
// fleet.Agent that classifies raw decode outcomes into Xid-style
// events and streams them to a fleet coordinator, whose policy drives
// drain/retire decisions.
//
// Two field phenomena shape the model beyond the paper's per-device
// FIT rate ("Hard Data on Soft Errors", PAPERS.md):
//
//   - error rates are wildly non-uniform across a fleet — a small
//     population of "bad apple" nodes produces most of the errors — so
//     per-node rates draw from a heavy-tailed multiplier mix;
//   - silent data corruptions are, by definition, invisible to the
//     node agent. The simulator keeps the SDC ground truth to itself
//     and uses it only to score the policy afterwards: SDCs that land
//     on a node after the policy removed it were avoided; the rest
//     were suffered. That is the policy-quality metric (SDC avoided
//     vs capacity lost) FleetResult.Quality reports.

// RateClass is one slice of the per-node rate-multiplier mix.
type RateClass struct {
	// Frac is the fraction of nodes in this class; Mult multiplies the
	// base soft-error rate for them.
	Frac float64 `json:"frac"`
	Mult float64 `json:"mult"`
}

// DefaultRateClasses is the heavy-tailed bad-apple mix: most nodes at
// the paper's base rate, a thin tail erroring 8x/40x/250x faster.
func DefaultRateClasses() []RateClass {
	return []RateClass{
		{Frac: 0.90, Mult: 1},
		{Frac: 0.07, Mult: 8},
		{Frac: 0.025, Mult: 40},
		{Frac: 0.005, Mult: 250},
	}
}

// FleetConfig sizes a fleet simulation.
type FleetConfig struct {
	// Scheme is the rank-level ECC every node runs (default NI:SEC-DED,
	// the weakest Table-2 code — the interesting regime for a fleet
	// policy, since it actually lets SDCs through).
	Scheme core.Scheme
	// Nodes is the fleet size; Hours the simulated deployment.
	Nodes int
	Hours float64
	// TickHours is the simulation step (default 1).
	TickHours float64
	// RawFITPerGPU defaults to the paper's 12.51 FIT/Gb x 320 Gb.
	RawFITPerGPU float64
	// Accel multiplies the soft-error rate (default 1) — the same
	// acceleration trick as beam testing, so months of field time
	// produce benchable event volumes. Node crashes are not
	// accelerated.
	Accel float64
	// CrashFITPerNode is the off-the-bus rate (default 2000 FIT per
	// node — board/driver failures dominate DRAM FIT in the field).
	CrashFITPerNode float64
	// CrashReportProb is the chance a crashing node gets its final
	// Xid 79 report out before going silent (default 0.5; the silent
	// half exercises the coordinator's lease-expiry path).
	CrashReportProb float64
	// UncontainedFrac is the fraction of DUEs that escape containment
	// (Xid 95 rather than 48; default 0.25).
	UncontainedFrac float64
	// ReportEveryHours is the agent heartbeat interval (default 6).
	ReportEveryHours float64
	// RepairHours is how long a drained node is out before returning
	// repaired — fresh agent, cleared windows (default 24).
	RepairHours float64
	// Rows is the per-node row address space for error placement
	// (default 65536).
	Rows int64
	// RateClasses is the node rate-multiplier mix (default
	// DefaultRateClasses).
	RateClasses []RateClass
	// Agent tunes the per-node agents.
	Agent fleet.AgentOptions
	// Outbox tunes the per-node report outboxes (queue bound, backoff).
	// Its OnAck and Seed are owned by the simulation: acks drive the
	// command bookkeeping, and each node derives its own jitter stream
	// from Seed, so both are overwritten.
	Outbox fleet.OutboxOptions
	// ReporterFor, when set, supplies each node's reporter instead of
	// the one passed to RunFleet — chaos tests use it to give every node
	// its own faulty transport. The RunFleet rep argument is ignored
	// (and may be nil) when ReporterFor is set.
	ReporterFor func(i int, id string) fleet.Reporter
	// OnTick, when set, fires at the start of every tick with the
	// tick's end time — the seam chaos tests use to kill coordinators
	// and toggle partitions mid-run.
	OnTick func(at float64)
	Seed   int64
}

func (c *FleetConfig) defaults() error {
	if c.Scheme == nil {
		s, err := core.SchemeByName("NI:SEC-DED")
		if err != nil {
			return err
		}
		c.Scheme = s
	}
	if c.Nodes <= 0 {
		return errors.New("fieldsim: fleet needs at least one node")
	}
	if c.Hours <= 0 {
		return errors.New("fieldsim: fleet needs positive hours")
	}
	if c.TickHours <= 0 {
		c.TickHours = 1
	}
	if c.RawFITPerGPU == 0 {
		c.RawFITPerGPU = sysrel.RawFITPerGb * sysrel.A100MemoryGb
	}
	if c.Accel <= 0 {
		c.Accel = 1
	}
	if c.CrashFITPerNode == 0 {
		c.CrashFITPerNode = 2000
	}
	if c.CrashReportProb == 0 {
		c.CrashReportProb = 0.5
	}
	if c.UncontainedFrac == 0 {
		c.UncontainedFrac = 0.25
	}
	if c.ReportEveryHours <= 0 {
		c.ReportEveryHours = 6
	}
	if c.RepairHours <= 0 {
		c.RepairHours = 24
	}
	if c.Rows <= 0 {
		c.Rows = 1 << 16
	}
	if len(c.RateClasses) == 0 {
		c.RateClasses = DefaultRateClasses()
	}
	return nil
}

// FleetResult is the simulation outcome plus the policy scorecard.
type FleetResult struct {
	Scheme string  `json:"scheme"`
	Nodes  int     `json:"nodes"`
	Hours  float64 `json:"hours"`
	// RawEvents counts soft-error events drawn and decoded; DCE/DUE/SDC
	// their decode outcomes (fleet-wide ground truth, in-service or not).
	RawEvents int `json:"raw_events"`
	DCE       int `json:"dce"`
	DUE       int `json:"due"`
	SDC       int `json:"sdc"`
	// XidEvents counts taxonomy events ingested by the coordinator
	// (post-dedup Events carry counts; this sums the counts); Reports
	// the report frames carrying them.
	XidEvents int64 `json:"xid_events"`
	Reports   int64 `json:"reports"`
	// Crashes counts off-the-bus nodes; SilentCrashes the subset whose
	// final report was lost (caught only by lease expiry).
	Crashes       int `json:"crashes"`
	SilentCrashes int `json:"silent_crashes"`
	// Outbox aggregates the per-node outbox counters — on a healthy
	// network Failures and Drops stay zero; under chaos they measure how
	// much reporting was buffered, retried, and shed.
	Outbox fleet.OutboxStats `json:"outbox"`
	// Quality is the policy scorecard.
	Quality fleet.Quality `json:"quality"`
}

// simNode is one node's simulation-side state (the agent plus the
// bookkeeping the agent must not see).
type simNode struct {
	id     string
	agent  *fleet.Agent
	box    *fleet.Outbox
	seq    uint64
	next   float64 // next heartbeat due
	rate   float64 // events/hour, accelerated
	outAt  float64 // when the policy removed it (valid if policyOut)
	retEnd float64 // drained-until; +Inf for retired
	out    bool    // currently out of service by policy
	gone   bool    // crashed (dead regardless of policy)
}

// RunFleet plays the fleet forward, streaming agent reports to rep
// (the coordinator's Loopback for in-process runs, a fleet.Client for
// a live fleetd), and returns the outcome with the policy scorecard.
// The run is deterministic given the config.
func RunFleet(ctx context.Context, cfg FleetConfig, rep fleet.Reporter) (FleetResult, error) {
	if err := cfg.defaults(); err != nil {
		return FleetResult{}, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	smp := errormodel.NewSampler(cfg.Seed + 1)

	var data [32]byte
	for i := range data {
		data[i] = byte(i*29 + 11)
	}
	wire := cfg.Scheme.Encode(data)

	res := FleetResult{Scheme: cfg.Scheme.Name(), Nodes: cfg.Nodes, Hours: cfg.Hours}
	res.Quality.NodeHours = float64(cfg.Nodes) * cfg.Hours

	reporterFor := cfg.ReporterFor
	if reporterFor == nil {
		reporterFor = func(int, string) fleet.Reporter { return rep }
	}

	// Build the fleet: rate multipliers assigned round-robin by
	// cumulative class fraction, weights prefix-summed for O(log n)
	// weighted event placement. Every node reports through its own
	// bounded outbox: on a healthy network frames flow straight through
	// and the run is identical to direct delivery; when the coordinator
	// is unreachable frames buffer and catch up in order once it heals.
	// flushAt tracks the simulated hour of the flush in progress so late
	// acks apply commands at the time the node learns of them.
	baseRate := cfg.RawFITPerGPU * 1e-9 * cfg.Accel // events/hour/node at mult 1
	nodes := make([]*simNode, cfg.Nodes)
	cum := make([]float64, cfg.Nodes) // cumulative event weight
	total := 0.0
	flushAt := 0.0
	for i := range nodes {
		mult := multFor(cfg.RateClasses, i, cfg.Nodes)
		n := &simNode{
			id:   fmt.Sprintf("node-%05d", i),
			rate: baseRate * mult,
			next: cfg.ReportEveryHours * (0.5 + 0.5*float64(i)/float64(cfg.Nodes)), // stagger heartbeats
		}
		n.agent = fleet.NewAgent(n.id, cfg.Agent)
		obox := cfg.Outbox
		obox.Seed = cfg.Outbox.Seed + int64(i)*7919 + 1 // per-node jitter stream
		obox.OnAck = func(req fleet.ReportRequest, resp fleet.ReportResponse) {
			res.Reports++
			for _, e := range req.Events {
				res.XidEvents += int64(e.N())
			}
			// Follow the coordinator's standing order. Crashed nodes are
			// dead either way; commanding them costs no capacity.
			if !n.out && !n.gone {
				switch resp.Command {
				case fleet.CommandRetire:
					n.out, n.outAt, n.retEnd = true, flushAt, math.Inf(1)
					res.Quality.Retired++
				case fleet.CommandDrain:
					n.out, n.outAt, n.retEnd = true, flushAt, flushAt+cfg.RepairHours
					res.Quality.Drained++
				}
			}
		}
		n.box = fleet.NewOutbox(reporterFor(i, n.id), obox)
		nodes[i] = n
		total += n.rate
		cum[i] = total
	}
	crashRate := cfg.CrashFITPerNode * 1e-9 // events/hour/node, not accelerated

	report := func(n *simNode, at float64) error {
		return Frames(n.agent, &n.seq, at, func(req fleet.ReportRequest) error {
			n.box.Enqueue(req)
			flushAt = at
			return n.box.Flush(ctx, at)
		})
	}

	for t := 0.0; t < cfg.Hours; t += cfg.TickHours {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		now := t + cfg.TickHours
		if cfg.OnTick != nil {
			cfg.OnTick(now)
		}

		// Repairs come back online with a fresh (reset) agent.
		for _, n := range nodes {
			if n.out && !n.gone && now >= n.retEnd {
				n.out = false
				n.agent = fleet.NewAgent(n.id, cfg.Agent)
			}
		}

		// Soft-error events, fleet-wide Poisson placed by node weight.
		// Out-of-service nodes still draw events: that is the
		// counterfactual the policy is scored against.
		events := stats.Poisson(rng, total*cfg.TickHours)
		for k := 0; k < events; k++ {
			i := sort.SearchFloat64s(cum, rng.Float64()*total)
			if i >= len(nodes) {
				i = len(nodes) - 1
			}
			n := nodes[i]
			if n.gone {
				continue // dead hardware errors at no one
			}
			at := t + rng.Float64()*cfg.TickHours
			row := rng.Int63n(cfg.Rows)
			_, e := smp.SampleEvent()
			res.RawEvents++
			switch decode(cfg.Scheme, wire, e) {
			case due:
				res.DUE++
				if !n.out {
					n.agent.ObserveDUE(at, row, rng.Float64() < cfg.UncontainedFrac)
				}
			case dce:
				res.DCE++
				if !n.out {
					n.agent.ObserveCorrected(at, row)
				}
			default:
				res.SDC++
				res.Quality.SDCTotal++
				if n.out {
					res.Quality.SDCAvoided++
				} else {
					res.Quality.SDCSuffered++
				}
			}
		}

		// Node crashes (not accelerated, in-service nodes only).
		inService := 0
		for _, n := range nodes {
			if !n.gone && !n.out {
				inService++
			}
		}
		for k := stats.Poisson(rng, crashRate*cfg.TickHours*float64(inService)); k > 0; k-- {
			n := nodes[rng.Intn(len(nodes))]
			if n.gone || n.out {
				continue // thinning; close enough for a rare process
			}
			at := t + rng.Float64()*cfg.TickHours
			n.agent.ObserveCrash(at)
			res.Crashes++
			if rng.Float64() < cfg.CrashReportProb {
				if err := report(n, at); err != nil {
					return res, err
				}
			} else {
				n.agent.Drain() // report lost; lease expiry finds the corpse
				res.SilentCrashes++
			}
			n.gone = true
		}

		// Heartbeats and event reports for in-service nodes.
		for _, n := range nodes {
			if n.gone || n.out {
				continue
			}
			if now >= n.next || n.agent.Pending() > 0 {
				if err := report(n, now); err != nil {
					return res, err
				}
				for n.next <= now {
					n.next += cfg.ReportEveryHours
				}
			}
		}

		// Backlogged outboxes keep retrying on their backoff schedule
		// even when no heartbeat is due — including crashed and drained
		// nodes, whose already-spooled frames the on-host outbox keeps
		// delivering out of band. On a healthy network this loop is a
		// no-op: nothing is ever backlogged.
		for _, n := range nodes {
			if n.box.Backlogged() {
				flushAt = now
				if err := n.box.Flush(ctx, now); err != nil {
					return res, err
				}
			}
		}

		// Capacity accounting: policy-removed, otherwise-alive nodes.
		for _, n := range nodes {
			if n.out && !n.gone {
				res.Quality.LostNodeHours += cfg.TickHours
			}
		}
	}

	// End-of-run drain: one last ungated delivery pass for anything
	// still buffered, then fold the per-node outbox counters in.
	flushAt = cfg.Hours
	for _, n := range nodes {
		if err := n.box.FlushFinal(ctx, cfg.Hours); err != nil {
			return res, err
		}
		res.Outbox.Add(n.box.Stats())
	}

	res.Quality.Finalize()
	return res, nil
}

// Frames drains a's outbox into report frames stamped at simulated hour
// at and hands them to send in order. Every frame carries the agent's
// health and recommendation at at, the next sequence number from *seq,
// and at most fleet.MaxEventsPerReport events. At least one frame is
// always sent: an empty report is the heartbeat that renews the node's
// liveness lease. Frames stops at the first send error.
func Frames(a *fleet.Agent, seq *uint64, at float64, send func(fleet.ReportRequest) error) error {
	events := a.Drain()
	health, rec := a.Health(at)
	for {
		batch := events
		if len(batch) > fleet.MaxEventsPerReport {
			batch = batch[:fleet.MaxEventsPerReport]
		}
		events = events[len(batch):]
		*seq++
		if err := send(fleet.ReportRequest{
			NodeID:    a.Node(),
			Seq:       *seq,
			AtHours:   at,
			Health:    health.String(),
			Recommend: rec.String(),
			Events:    batch,
		}); err != nil {
			return err
		}
		if len(events) == 0 {
			return nil
		}
	}
}

// multFor deals node i of nodes its rate class by cumulative fraction,
// so class populations are exact (not sampled) and runs are
// deterministic in fleet size.
func multFor(classes []RateClass, i, nodes int) float64 {
	// Spread classes by interleaving on the unit interval: node i sits
	// at position (i+0.5)/nodes and takes the class covering it.
	pos := (float64(i) + 0.5) / float64(nodes)
	cum := 0.0
	for _, c := range classes {
		cum += c.Frac
		if pos <= cum {
			return c.Mult
		}
	}
	return classes[len(classes)-1].Mult
}
