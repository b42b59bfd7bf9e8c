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

// rateClasses is the heavy-tailed bad-apple mix: most nodes at the
// paper's base rate, a thin tail erroring 8x/40x/250x faster. frac is the
// fraction of nodes in a class; mult multiplies the base soft-error rate
// for them.
var rateClasses = []struct{ frac, mult float64 }{
	{frac: 0.90, mult: 1},
	{frac: 0.07, mult: 8},
	{frac: 0.025, mult: 40},
	{frac: 0.005, mult: 250},
}

// Fixed parameters of the fleet model.
const (
	// tickHours is the simulation step.
	tickHours float64 = 1
	// uncontainedFrac is the fraction of DUEs that escape containment
	// (Xid 95 rather than 48).
	uncontainedFrac float64 = 0.25
	// reportEveryHours is the agent heartbeat interval.
	reportEveryHours float64 = 6
	// repairHours is how long a drained node is out before returning
	// repaired: fresh agent, cleared windows.
	repairHours float64 = 24
	// rows is the per-node row address space for error placement.
	rows int64 = 1 << 16
)

// FleetConfig sizes a fleet simulation.
type FleetConfig struct {
	// Scheme is the rank-level ECC every node runs (default NI:SEC-DED,
	// the weakest Table-2 code — the interesting regime for a fleet
	// policy, since it actually lets SDCs through).
	Scheme core.Scheme
	// Nodes is the fleet size; Hours the simulated deployment.
	Nodes int
	Hours float64
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
	// Agent tunes the per-node agents.
	Agent fleet.AgentOptions
	Seed  int64
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
	if c.Accel <= 0 {
		c.Accel = 1
	}
	if c.CrashFITPerNode == 0 {
		c.CrashFITPerNode = 2000
	}
	if c.CrashReportProb == 0 {
		c.CrashReportProb = 0.5
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
	// Outbox is the fleet-wide frame ledger. Its name and JSON key stay
	// as recorded results pinned them.
	Outbox FrameLedger `json:"outbox"`
	// Quality is the policy scorecard.
	Quality fleet.Quality `json:"quality"`
}

// FrameLedger counts the report frames a fleet run handed to its
// reporter. Each frame is handed over once, so Sent + Rejected ==
// Enqueued unless a context error stopped the run. Drops and Failures
// are always zero; they stay because recorded results pin the
// ledger's JSON field by field.
type FrameLedger struct {
	// Enqueued counts frames handed to the reporter; Sent those it
	// acknowledged; Rejected those it refused.
	Enqueued int64
	Sent     int64
	Drops    int64
	Failures int64
	Rejected int64
}

// simNode is one node's simulation-side state (the agent plus the
// bookkeeping the agent must not see).
type simNode struct {
	id     string
	agent  *fleet.Agent
	seq    uint64
	handle int     // the coordinator's handle for the node, once it answered
	next   float64 // next heartbeat due
	rate   float64 // events/hour, accelerated
	retEnd float64 // drained-until; +Inf for retired
	out    bool    // currently out of service by policy
	gone   bool    // crashed (dead regardless of policy)
}

// RunFleet plays the fleet forward, handing every agent report frame
// to rep (normally a coordinator's Loopback), and returns the outcome
// with the policy scorecard. A node follows the command acknowledging
// its frame from the frame's own hour; a frame rep refuses is counted
// and skipped. Only a context error stops the run early. The run is
// deterministic given the config.
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

	// Build the fleet: rate multipliers assigned round-robin by
	// cumulative class fraction, weights prefix-summed for O(log n)
	// weighted event placement.
	baseRate := rawFITPerGPU * 1e-9 * cfg.Accel // events/hour/node at mult 1
	nodes := make([]*simNode, cfg.Nodes)
	cum := make([]float64, cfg.Nodes) // cumulative event weight
	total := 0.0
	for i := range nodes {
		mult := multFor(i, cfg.Nodes)
		n := &simNode{
			id:   fmt.Sprintf("node-%05d", i),
			rate: baseRate * mult,
			next: reportEveryHours * (0.5 + 0.5*float64(i)/float64(cfg.Nodes)), // stagger heartbeats
		}
		n.agent = fleet.NewAgent(n.id, cfg.Agent)
		nodes[i] = n
		total += n.rate
		cum[i] = total
	}
	crashRate := cfg.CrashFITPerNode * 1e-9 // events/hour/node, not accelerated

	report := func(n *simNode, at float64) error {
		return Frames(n.agent, &n.seq, at, func(req fleet.ReportRequest) error {
			res.Outbox.Enqueued++
			req.Handle = n.handle
			resp, err := rep.Report(ctx, req)
			if err != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				res.Outbox.Rejected++
				return nil
			}
			n.handle = resp.Handle
			res.Outbox.Sent++
			res.Reports++
			for _, e := range req.Events {
				res.XidEvents += int64(e.N())
			}
			// Follow the coordinator's standing order. Crashed nodes are
			// dead either way; commanding them costs no capacity.
			if !n.out && !n.gone {
				switch resp.Command {
				case fleet.CommandRetire:
					n.out, n.retEnd = true, math.Inf(1)
					res.Quality.Retired++
				case fleet.CommandDrain:
					n.out, n.retEnd = true, at+repairHours
					res.Quality.Drained++
				}
			}
			return nil
		})
	}

	for t := 0.0; t < cfg.Hours; t += tickHours {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		now := t + tickHours

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
		events := stats.Poisson(rng, total*tickHours)
		for k := 0; k < events; k++ {
			i := sort.SearchFloat64s(cum, rng.Float64()*total)
			if i >= len(nodes) {
				i = len(nodes) - 1
			}
			n := nodes[i]
			if n.gone {
				continue // dead hardware errors at no one
			}
			at := t + rng.Float64()*tickHours
			row := rng.Int63n(rows)
			_, e := smp.SampleEvent()
			res.RawEvents++
			switch decode(cfg.Scheme, wire, e) {
			case due:
				res.DUE++
				if !n.out {
					n.agent.ObserveDUE(at, row, rng.Float64() < uncontainedFrac)
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
		for k := stats.Poisson(rng, crashRate*tickHours*float64(inService)); k > 0; k-- {
			n := nodes[rng.Intn(len(nodes))]
			if n.gone || n.out {
				continue // thinning; close enough for a rare process
			}
			at := t + rng.Float64()*tickHours
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
					n.next += reportEveryHours
				}
			}
		}

		// Capacity accounting: policy-removed, otherwise-alive nodes.
		for _, n := range nodes {
			if n.out && !n.gone {
				res.Quality.LostNodeHours += tickHours
			}
		}
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
func multFor(i, nodes int) float64 {
	// Spread classes by interleaving on the unit interval: node i sits
	// at position (i+0.5)/nodes and takes the class covering it.
	pos := (float64(i) + 0.5) / float64(nodes)
	cum := 0.0
	for _, c := range rateClasses {
		cum += c.frac
		if pos <= cum {
			return c.mult
		}
	}
	return rateClasses[len(rateClasses)-1].mult
}
