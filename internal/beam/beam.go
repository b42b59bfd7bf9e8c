// Package beam simulates a neutron beamline in the style of ChipIR (§3):
// a Poisson process of single-event upsets whose rate splits between
// array faults (proportional to exposure time) and logic faults
// (proportional to memory activity, reproducing §5's DRAM-utilization
// result), plus displacement-damage accrual — weak cells accumulating
// linearly with fluence until the leaky-cell pool saturates (§4), with
// normally-distributed retention times and partial annealing outside the
// beam.
package beam

import (
	"context"
	"math"
	"math/rand"

	"hbm2ecc/internal/dram"
	"hbm2ecc/internal/faults"
	"hbm2ecc/internal/obs"
	"hbm2ecc/internal/stats"
	"hbm2ecc/internal/xrand"
)

// Process-wide beam telemetry (internal/obs Default registry). Counters
// aggregate over every beamline in the process; per-device views are
// the fleet coordinator's, fed by fieldsim probes (cmd/obsd).
var (
	mInjectedArray = obs.NewCounter("beam_injected_events_total",
		"Soft-error events injected by simulated beamlines.", "source").With("array")
	mInjectedLogic = obs.NewCounter("beam_injected_events_total",
		"Soft-error events injected by simulated beamlines.", "source").With("logic")
	mInjectedKind = obs.NewCounter("beam_injected_faults_total",
		"Injected fault events by fault kind.", "kind")
	mCorruptions = obs.NewCounter("beam_corruptions_total",
		"Entry corruptions applied to devices by injected events.").With()
	mWeakCells = obs.NewCounter("beam_weak_cells_created_total",
		"Displacement-damaged weak cells created across all beamlines.").With()
)

// Published beam parameters (§3).
const (
	// ChipIRFlux is the average beam flux, neutrons/cm²/s.
	ChipIRFlux = 9.8e5
	// TerrestrialFlux is the sea-level NYC reference flux converted to
	// neutrons/cm²/s (14 n/cm²/h).
	TerrestrialFlux = 14.0 / 3600.0
	// AccelerationFactor is ChipIRFlux / TerrestrialFlux ≈ 2.52e8.
	AccelerationFactor = ChipIRFlux / TerrestrialFlux
)

// DamageModel parameterizes displacement damage (§4). Weak cells
// accumulate as Pool·(1−exp(−F/SaturationFluence)) — linear at first
// (Fig. 3c, R²≈0.97) and saturating once every leaky cell is damaged
// (Fig. 3a's asymptote). Retention times are normal (Fig. 3b), and
// annealing shifts them upward with a ~hours time constant, producing the
// paper's 26%-at-8ms / 2.5%-at-48ms recovery asymmetry.
type DamageModel struct {
	Pool               int     // leaky cells per 32GB GPU (~2700)
	SaturationFluence  float64 // n/cm²: fluence scale of pool exhaustion
	RetentionMean      float64 // seconds (~22ms)
	RetentionStd       float64 // seconds (~14ms)
	LeakToOneFraction  float64 // fraction of cells leaking 0->1 (0.2%)
	AnnealShiftMax     float64 // seconds of retention recovered at t→∞
	AnnealTimeConstant float64 // seconds (~hours)
}

// DefaultDamage returns the calibration used throughout the repository.
func DefaultDamage() DamageModel {
	return DamageModel{
		Pool:               2700,
		SaturationFluence:  2.5e10,
		RetentionMean:      0.022,
		RetentionStd:       0.014,
		LeakToOneFraction:  0.002,
		AnnealShiftMax:     0.004,
		AnnealTimeConstant: 3 * 3600,
	}
}

// ExpectedWeakCells returns the expected damaged-cell count at cumulative
// fluence f.
func (m DamageModel) ExpectedWeakCells(f float64) float64 {
	return float64(m.Pool) * (1 - math.Exp(-f/m.SaturationFluence))
}

// Beam drives a device-under-test through beam exposure.
type Beam struct {
	Flux float64 // always ChipIRFlux
	// SEURatePerFlux converts flux to soft-error events per second at
	// full memory utilization: events/s = flux × SEURatePerFlux ×
	// (arrayFraction + (1-arrayFraction)·utilization).
	SEURatePerFlux float64
	Damage         DamageModel // always DefaultDamage()

	Injector *faults.Injector
	Device   *dram.Device

	rng         *rand.Rand
	ctx         context.Context
	fluence     float64
	timeInBeam  float64
	timeOutside float64
	weakCreated int
}

// SetContext attaches a cancellation context: once it is done, Expose
// becomes a no-op (no RNG consumption, no injection). Runs cut short this
// way are marked Cancelled by the microbenchmark and discarded from
// campaign statistics, so the truncated RNG stream never leaks into
// results: a cancelled campaign keeps only its completed runs.
func (b *Beam) SetContext(ctx context.Context) { b.ctx = ctx }

// Config bundles beam construction parameters.
type Config struct {
	SEURatePerFlux float64 // default: one event per ~30 beam-seconds
	Seed           int64
}

// arrayFraction is the share of the event rate from array strikes
// (utilization-independent); the remainder is logic faults. It is the
// array share of the fault mixture itself, so that at utilization 1 the
// observed event mix equals the calibrated DefaultMix (≈65%).
var arrayFraction = func() float64 {
	sum, arr := 0.0, 0.0
	for k := faults.Kind(0); k < faults.NumKinds; k++ {
		sum += faults.DefaultMix[k]
		if k.ArrayFault() {
			arr += faults.DefaultMix[k]
		}
	}
	return arr / sum
}()

// New builds a beamline at ChipIR flux aimed at the given device.
func New(dev *dram.Device, cfg Config) *Beam {
	if cfg.SEURatePerFlux == 0 {
		// MTTE of ~30s at ChipIR flux and full utilization.
		cfg.SEURatePerFlux = 1.0 / (30 * ChipIRFlux)
	}
	return &Beam{
		Flux:           ChipIRFlux,
		SEURatePerFlux: cfg.SEURatePerFlux,
		Damage:         DefaultDamage(),
		Injector:       faults.NewInjector(dev.Cfg, cfg.Seed+1),
		Device:         dev,
		rng:            xrand.New(cfg.Seed),
	}
}

// TimedEvent is a soft-error event stamped with its occurrence time.
type TimedEvent struct {
	Time  float64
	Event faults.Event
}

// Fluence returns the cumulative fluence delivered so far (n/cm²).
func (b *Beam) Fluence() float64 { return b.fluence }

// WeakCellsCreated returns the number of displacement-damaged cells
// created so far.
func (b *Beam) WeakCellsCreated() int { return b.weakCreated }

// Expose advances the beam from t0 to t1 with the device performing
// memory accesses at the given utilization (0..1). Soft-error events are
// applied to the device and returned (time-ordered); displacement damage
// accrues silently.
func (b *Beam) Expose(t0, t1, utilization float64) []TimedEvent {
	dt := t1 - t0
	if dt <= 0 {
		return nil
	}
	if b.ctx != nil && b.ctx.Err() != nil {
		return nil
	}
	b.timeInBeam += dt

	// Displacement damage: expected new weak cells over this interval.
	f0 := b.fluence
	b.fluence += b.Flux * dt
	expected := b.Damage.ExpectedWeakCells(b.fluence) - b.Damage.ExpectedWeakCells(f0)
	n := stats.Poisson(b.rng, expected)
	for i := 0; i < n; i++ {
		b.addWeakCell()
	}

	// Soft-error events: array rate + utilization-scaled logic rate.
	arrayRate := b.Flux * b.SEURatePerFlux * arrayFraction
	logicRate := b.Flux * b.SEURatePerFlux * (1 - arrayFraction) * utilization
	var events []TimedEvent
	for _, kindSel := range []struct {
		rate      float64
		arrayOnly bool
	}{{arrayRate, true}, {logicRate, false}} {
		k := stats.Poisson(b.rng, kindSel.rate*dt)
		for i := 0; i < k; i++ {
			kind := b.Injector.RandomKind(kindSel.arrayOnly, !kindSel.arrayOnly)
			ev := b.Injector.NewEvent(kind)
			te := TimedEvent{Time: t0 + b.rng.Float64()*dt, Event: ev}
			events = append(events, te)
			mInjectedKind.With(kind.String()).Inc()
		}
		if kindSel.arrayOnly {
			mInjectedArray.Add(uint64(k))
		} else {
			mInjectedLogic.Add(uint64(k))
		}
	}
	sortTimed(events)
	for _, te := range events {
		for _, eff := range te.Event.Effects {
			b.Device.InjectCorruption(eff.Entry, eff.Corr)
			mCorruptions.Inc()
		}
	}
	return events
}

// Rest advances time with the device outside the beam: no new events, but
// annealing progresses and the device's retention shift is updated.
func (b *Beam) Rest(duration float64) {
	b.timeOutside += duration
	shift := b.Damage.AnnealShiftMax *
		(1 - math.Exp(-b.timeOutside/b.Damage.AnnealTimeConstant))
	b.Device.SetRetentionShift(shift)
}

func (b *Beam) addWeakCell() {
	entry := int64(b.rng.Int63n(b.Device.Cfg.Entries()))
	// Weak cells live in data mats (256 data bits per entry) and map to
	// the wire through the standard byte layout.
	k := b.rng.Intn(256)
	byteIdx := k / 8
	bit := byteBase(byteIdx) + k%8
	ret := b.Damage.RetentionMean + b.Damage.RetentionStd*b.rng.NormFloat64()
	if ret < 1e-4 {
		ret = 1e-4
	}
	leak := uint(0)
	if b.rng.Float64() < b.Damage.LeakToOneFraction {
		leak = 1
	}
	b.Device.AddWeakCell(entry, dram.WeakCell{Bit: bit, Retention: ret, LeakTo: leak})
	b.weakCreated++
	mWeakCells.Inc()
}

func byteBase(dataByte int) int {
	return (dataByte/8)*72 + (dataByte%8)*8
}

func sortTimed(evs []TimedEvent) {
	// Insertion sort: event counts per interval are tiny.
	for i := 1; i < len(evs); i++ {
		for j := i; j > 0 && evs[j].Time < evs[j-1].Time; j-- {
			evs[j], evs[j-1] = evs[j-1], evs[j]
		}
	}
}
