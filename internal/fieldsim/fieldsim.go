// Package fieldsim is a Monte-Carlo field simulator: it plays out fleets
// of GPUs over simulated deployment time, drawing raw HBM2 soft-error
// events as a Poisson process at the paper's 12.51 FIT/Gb and pushing each
// event through a real decoder, then reports empirical MTTI/MTTF with
// confidence intervals. It cross-validates the closed-form system-level
// math in internal/sysrel (Fig. 9, §7.3) against an independent,
// simulation-based estimate.
package fieldsim

import (
	"math"
	"math/rand"

	"hbm2ecc/internal/bitvec"
	"hbm2ecc/internal/core"
	"hbm2ecc/internal/ecc"
	"hbm2ecc/internal/errormodel"
	"hbm2ecc/internal/stats"
	"hbm2ecc/internal/sysrel"
)

// Config sizes a field simulation.
type Config struct {
	Scheme core.Scheme
	// GPUs in the fleet.
	GPUs float64
	// Hours of simulated deployment.
	Hours float64
	Seed  int64
}

// rawFITPerGPU is the paper's 12.51 FIT/Gb × 320 Gb.
const rawFITPerGPU float64 = sysrel.RawFITPerGb * sysrel.A100MemoryGb

// Result is the simulation outcome.
type Result struct {
	Scheme string
	// Events is the number of raw soft-error events drawn.
	Events int
	// DCE, DUE and SDC count decode outcomes.
	DCE, DUE, SDC int
	// Hours is the simulated wall-clock deployment time.
	Hours float64
	// FleetHours is GPUs × Hours.
	FleetHours float64
}

// Simulate runs the field simulation.
func Simulate(cfg Config) Result {
	rng := rand.New(rand.NewSource(cfg.Seed))
	fleetHours := cfg.GPUs * cfg.Hours
	mean := fleetHours * rawFITPerGPU * 1e-9
	n := stats.Poisson(rng, mean)

	res := Result{Scheme: cfg.Scheme.Name(), Events: n, Hours: cfg.Hours, FleetHours: fleetHours}
	var data [32]byte
	wire := cfg.Scheme.Encode(data)
	smp := errormodel.NewSampler(cfg.Seed + 1)
	for i := 0; i < n; i++ {
		_, e := smp.SampleEvent()
		switch decode(cfg.Scheme, wire, e) {
		case due:
			res.DUE++
		case dce:
			res.DCE++
		default:
			res.SDC++
		}
	}
	return res
}

// outcome is the ground-truth class of one decoded error.
type outcome int

const (
	dce outcome = iota // corrected back to the written codeword
	due                // detected, uncorrectable
	sdc                // silently miscorrected or undetected
)

// decode applies error e to the codeword wire and classifies what
// scheme s makes of it. It is the one decode step every event source in
// this package shares.
func decode(s core.Scheme, wire, e bitvec.V288) outcome {
	wr := s.DecodeWire(wire.Xor(e))
	switch {
	case wr.Status == ecc.Detected:
		return due
	case wr.Wire == wire:
		return dce
	default:
		return sdc
	}
}

// MTTIHours returns the empirical mean wall-clock time between DUEs
// anywhere in the fleet (the Fig. 9a quantity), or +Inf when none
// occurred.
func (r Result) MTTIHours() float64 {
	if r.DUE == 0 {
		return math.Inf(1)
	}
	return r.Hours / float64(r.DUE)
}

// MTTFHours returns the empirical mean wall-clock time between SDCs
// anywhere in the fleet (Fig. 9b), or +Inf.
func (r Result) MTTFHours() float64 {
	if r.SDC == 0 {
		return math.Inf(1)
	}
	return r.Hours / float64(r.SDC)
}

// DUERate returns the empirical per-event DUE probability with a 95%
// Wilson interval, for comparison against the analytical Weighted figures.
func (r Result) DUERate() stats.Proportion { return stats.NewProportion(r.DUE, r.Events) }
