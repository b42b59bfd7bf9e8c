package fieldsim

import (
	"sort"
	"strconv"

	"hbm2ecc/internal/beam"
	"hbm2ecc/internal/bitvec"
	"hbm2ecc/internal/classify"
	"hbm2ecc/internal/core"
	"hbm2ecc/internal/dram"
	"hbm2ecc/internal/fleet"
	"hbm2ecc/internal/fleet/xid"
	"hbm2ecc/internal/hbm2"
	"hbm2ecc/internal/microbench"
)

// This file is the device-level event source beside RunFleet. RunFleet
// draws Table-1 patterns from the error model; a Probe instead observes
// one simulated V100 in its own beamline with the paper's DRAM
// microbenchmark, so the agent sees what the §4 pipeline sees: one-shot
// soft errors, told apart from the intermittent weak cells that
// displacement damage leaves behind.

// Probe is one simulated device under its own beam, checked with a
// short microbenchmark. It feeds what each check finds into a
// fleet.Agent and carries out the agent's row retirements on the
// device. A Probe is not safe for concurrent use; each device's loop
// owns one.
type Probe struct {
	dev    *dram.Device
	beam   *beam.Beam
	id     int
	seed   int64
	runs   int
	clock  float64 // simulated beam seconds
	checks int
	scheme core.Scheme
	wire   bitvec.V288 // scheme's codeword for the reference entry
}

// NewProbe builds device i of a fleet seeded with seed: a V100 whose
// beamline has mean time to soft-error event mtte seconds, checked with
// runs microbenchmark runs per check.
func NewProbe(i int, seed int64, mtte float64, runs int) *Probe {
	dev := dram.New(hbm2.V100(), dram.DefaultRefreshPeriod)
	scheme := core.NewSECDED(false, false)
	return &Probe{
		dev: dev,
		beam: beam.New(dev, beam.Config{
			Seed:           seed + int64(i)*7919,
			SEURatePerFlux: 1 / (mtte * beam.ChipIRFlux),
		}),
		id:     i,
		seed:   seed,
		runs:   runs,
		scheme: scheme,
		wire:   scheme.Encode([hbm2.EntryBytes]byte{}),
	}
}

// Node is the probe's node ID on the fleet plane.
func (p *Probe) Node() string { return "gpu" + strconv.Itoa(p.id) }

// Checks counts the checks run so far.
func (p *Probe) Checks() int { return p.checks }

// CheckResult is one check's ground truth. DCE, DUE and SDC classify
// the Entries entry errors of the check's soft-error events, decoded
// with NI:SEC-DED; the agent sees the DCEs and DUEs, never the SDCs.
type CheckResult struct {
	Records       int // raw mismatch records
	Events        int // clustered soft-error events
	Entries       int // entry errors across those events
	Damaged       int // distinct damaged (weak-cell) entries
	DCE, DUE, SDC int
}

// Check runs one health check and reports what it saw to a, stamped at
// simulated hour at. The microbenchmark (4 write × 5 read passes per
// run, no self-discards) advances the device clock and its fluence;
// classify splits the logs into soft-error events and damaged entries.
// Every soft-event entry error is decoded as RunFleet decodes a sampled
// pattern — a detection is a contained DUE, a correction a corrected
// error — and every damaged entry is a corrected error on its row.
func (p *Probe) Check(a *fleet.Agent, at float64) CheckResult {
	var res CheckResult
	logs := make([]*microbench.Log, 0, p.runs)
	salt := int64(p.checks)*1009 + int64(p.id)
	for run := 0; run < p.runs; run++ {
		log := microbench.Run(microbench.Config{
			Device:        p.dev,
			Beam:          p.beam,
			Pattern:       microbench.PatternKind(run % int(microbench.NumPatterns)),
			WritePasses:   4,
			ReadsPerWrite: 5,
			StartTime:     p.clock,
			Seed:          p.seed + salt*1_000_003 + int64(run),
			DiscardProb:   -1, // a health check must not self-discard
		})
		p.clock = log.EndTime
		res.Records += len(log.Records)
		logs = append(logs, log)
	}
	p.checks++

	an := classify.Analyze(logs, classify.Options{})
	res.Events = len(an.Events)
	for _, ev := range an.Events {
		res.Entries += len(ev.Entries)
		for _, ee := range ev.Entries {
			row := p.dev.Cfg.RowKey(ee.Entry)
			switch decode(p.scheme, p.wire, ee.Mask) {
			case due:
				res.DUE++
				a.ObserveDUE(at, row, false)
			case dce:
				res.DCE++
				a.ObserveCorrected(at, row)
			default:
				res.SDC++
			}
		}
	}

	damaged := make([]int64, 0, len(an.DamagedEntries))
	for e := range an.DamagedEntries {
		damaged = append(damaged, e)
	}
	sort.Slice(damaged, func(i, j int) bool { return damaged[i] < damaged[j] })
	for _, e := range damaged {
		a.ObserveCorrected(at, p.dev.Cfg.RowKey(e))
	}
	res.Damaged = len(damaged)
	return res
}

// Retire swaps out every row that an Xid 63 (row remap recorded) event
// among events names, as the agent's retirement table decided: the
// row's weak cells and pending corruption leave the address space. It
// returns the number of rows swapped out.
func (p *Probe) Retire(events []xid.Event) int {
	rows := 0
	for _, e := range events {
		if e.Code == xid.RowRemapRecorded && e.Row >= 0 {
			p.dev.RetireEntries(p.dev.Cfg.RowEntries(e.Row))
			rows++
		}
	}
	return rows
}
