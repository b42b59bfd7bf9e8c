// Package dram simulates the HBM2 DRAM device at cell granularity, with a
// sparse representation: the (up to 32GB) array is backed by a data-pattern
// function, and only deviations from the written pattern — soft-error
// corruption and displacement-damaged weak cells — are stored explicitly.
// Reads reconstruct the stored 36B entry (data + ECC area), apply
// corruption and retention effects, and return the wire image.
//
// Weak-cell behavior follows §4: a damaged cell's retention time τ is
// drawn from a normal distribution; the cell reads wrong when τ (plus any
// annealing shift) is below the refresh period and the stored value is the
// leak-susceptible one — 99.8% of damaged cells leak 1→0. Increasing the
// refresh period exposes more weak cells exactly along the retention-time
// CDF, which is what Fig. 3a/3b measure.
package dram

import (
	"sort"

	"hbm2ecc/internal/bitvec"
	"hbm2ecc/internal/hbm2"
)

// PatternFn generates the written 32B data payload of an entry. It stands
// in for the actual array contents, which are never materialized.
type PatternFn func(idx int64) [hbm2.EntryBytes]byte

// Corruption is a persistent deviation of an entry's stored charge,
// expressed on the 288-bit wire image (32B data + 4B ECC area). Stuck
// regions model inversion-type logic faults whose visibility depends on
// the written data (§5's data-dependent inversion errors): bits under
// SetMask read as SetVal regardless of what was written.
type Corruption struct {
	Xor     bitvec.V288
	SetMask bitvec.V288
	SetVal  bitvec.V288
}

// Merge layers another corruption on top of this one.
func (c *Corruption) Merge(o Corruption) {
	c.Xor = c.Xor.Xor(o.Xor)
	c.SetMask = c.SetMask.Or(o.SetMask)
	andNot := o.SetMask
	for i := range c.SetVal {
		c.SetVal[i] = c.SetVal[i]&^andNot[i] | o.SetVal[i]&andNot[i]
	}
}

// IsZero reports whether the corruption has no effect.
func (c Corruption) IsZero() bool { return c.Xor.IsZero() && c.SetMask.IsZero() }

// WeakCell is one displacement-damaged cell. Bits 0..287 are the entry's
// wire-visible cells; with an on-die ECC stage installed, bits 288 and up
// address its hidden parity cells (bit 288+p is stage parity cell p),
// whose stored charge is the encode of the written entry.
type WeakCell struct {
	Bit       int     // wire bit 0..287, or 288+p for hidden parity cell p
	Retention float64 // seconds of charge retention when created
	LeakTo    uint    // the value the cell decays to (0 for 99.8%)
}

// OnDieStage is the invisible per-die SEC ECC every read passes through
// before the wire (implemented by internal/ondie.Stage). The stage owns
// ParityBits hidden cells per entry; their stored values are a pure
// function of the written entry (Parity), and Correct applies the die's
// silent correct/miscorrect/pass-through behavior to the raw stored
// image before it crosses the pins.
type OnDieStage interface {
	// ParityBits is the number of hidden parity cells per entry (<= 64).
	ParityBits() int
	// Parity returns the packed stored values of the hidden cells for a
	// clean (as-written) entry.
	Parity(clean bitvec.V288) uint64
	// Correct decodes the raw stored entry: clean is the entry as
	// written, raw the stored image after faults, parityErr the error
	// mask of the hidden parity cells. It returns the transmitted wire.
	Correct(clean, raw bitvec.V288, parityErr uint64) bitvec.V288
}

// Device is a simulated HBM2 DRAM device. It is not safe for concurrent
// use; the simulation is single-threaded by design (one GPU, one beam).
type Device struct {
	Cfg           hbm2.Config
	RefreshPeriod float64 // seconds (HBM2 default 16ms)

	pattern PatternFn
	// wireFor converts a written payload to the stored 288-bit image;
	// nil means the standard layout with a zero ECC area.
	wireFor   func(data [hbm2.EntryBytes]byte) bitvec.V288
	lastWrite float64

	corrupt map[int64]*Corruption
	weak    map[int64][]WeakCell
	// rewriteAt records per-entry rewrite times (RewriteEntry); a weak
	// cell's leak clock starts at the entry's most recent write.
	rewriteAt map[int64]float64
	// retentionShift models annealing: it is added to every weak cell's
	// retention time.
	retentionShift float64
	weakCount      int
	// ondie, when non-nil, is the per-die SEC ECC stage applied to every
	// read before the wire image leaves the die.
	ondie OnDieStage
}

// DefaultRefreshPeriod is the HBM2 default of 16ms.
const DefaultRefreshPeriod = 0.016

// New creates a device with everything intact and an all-zero pattern.
func New(cfg hbm2.Config, refreshPeriod float64) *Device {
	return &Device{
		Cfg:           cfg,
		RefreshPeriod: refreshPeriod,
		pattern:       func(int64) [hbm2.EntryBytes]byte { return [hbm2.EntryBytes]byte{} },
		corrupt:       make(map[int64]*Corruption),
		weak:          make(map[int64][]WeakCell),
	}
}

// WriteAll simulates the microbenchmark's full-memory write pass at time t:
// the new pattern replaces all stored charge, clearing soft-error
// corruption (soft errors persist only until the next write). Weak cells
// remain damaged — the damage is physical.
func (d *Device) WriteAll(pat PatternFn, t float64) {
	d.pattern = pat
	d.lastWrite = t
	d.corrupt = make(map[int64]*Corruption)
	d.rewriteAt = nil
}

// RewriteEntry models a single-entry store at time t: the stored charge
// of one 32B entry is replaced, so soft-error corruption recorded on it
// clears (exactly as WriteAll clears the whole device) and its weak
// cells' leak clocks restart at t. The new data itself comes from the
// installed pattern source — callers that rewrite entries (the workload
// layer) own a mutable backing store their PatternFn reads through, so
// the device never materializes payloads.
func (d *Device) RewriteEntry(idx int64, t float64) {
	delete(d.corrupt, idx)
	if len(d.weak[idx]) > 0 {
		if d.rewriteAt == nil {
			d.rewriteAt = make(map[int64]float64)
		}
		d.rewriteAt[idx] = t
	}
}

// SetWireEncoder installs a payload-to-wire encoder — the standard layout
// with generated check bytes (bitvec.FromDataECC) when simulating with
// GPU DRAM ECC enabled, or e.g. an interleaved ECC scheme whose wire
// layout scrambles data and check bits. Corruption and weak cells always
// act on physical wire bits, so fault semantics are unchanged. A nil
// encoder restores the standard layout with a zero ECC area.
func (d *Device) SetWireEncoder(enc func(data [hbm2.EntryBytes]byte) bitvec.V288) {
	d.wireFor = enc
}

// LastWrite returns the time of the last full write pass.
func (d *Device) LastWrite() float64 { return d.lastWrite }

// SetOnDie installs (or, with nil, removes) the per-die ECC stage. Hidden
// parity cells exist only while a stage is installed; weak cells already
// registered on parity positions of a removed stage are ignored by reads.
func (d *Device) SetOnDie(s OnDieStage) { d.ondie = s }

// OnDie returns the installed per-die ECC stage, or nil.
func (d *Device) OnDie() OnDieStage { return d.ondie }

// InjectCorruption layers a soft-error corruption onto an entry.
func (d *Device) InjectCorruption(idx int64, c Corruption) {
	if cur, ok := d.corrupt[idx]; ok {
		cur.Merge(c)
		return
	}
	cc := c
	d.corrupt[idx] = &cc
}

// AddWeakCell registers a displacement-damaged cell. Bits at and beyond
// 288 address the on-die stage's hidden parity cells and require a stage
// wide enough to own them.
func (d *Device) AddWeakCell(idx int64, w WeakCell) {
	if w.Bit >= bitvec.EntryBits {
		limit := bitvec.EntryBits
		if d.ondie != nil {
			limit += d.ondie.ParityBits()
		}
		if w.Bit >= limit {
			panic("dram: weak cell beyond entry and on-die parity cells")
		}
	}
	d.weak[idx] = append(d.weak[idx], w)
	d.weakCount++
}

// WeakCellCount returns the total number of damaged cells (regardless of
// whether the current refresh period exposes them).
func (d *Device) WeakCellCount() int { return d.weakCount }

// SetRetentionShift sets the annealing shift added to every weak cell's
// retention time.
func (d *Device) SetRetentionShift(s float64) { d.retentionShift = s }

// RetentionShift returns the current annealing shift.
func (d *Device) RetentionShift() float64 { return d.retentionShift }

// ReadWire returns the stored 36B entry at time t with all fault effects
// applied. With an on-die ECC stage installed, the raw cell contents
// (including hidden parity cells) pass through the per-die decode before
// the wire image leaves the die — so rank-level codes above only ever see
// the stage's corrected/miscorrected output.
func (d *Device) ReadWire(idx int64, t float64) bitvec.V288 {
	return d.read(idx, []float64{t}, nil)
}

// ReadSeries reads entry idx at each time in ts and stores the 32B data
// payloads in out, which must be at least as long as ts. out[i] is the
// data of ReadWire(idx, ts[i]), and an installed on-die stage corrects
// each read once. The entry's state is looked up once, when ReadSeries
// is called, so every read sees the corruption injected by then; the
// microbenchmark reads a write pass's candidates after Beam.Expose has
// injected all of the pass's corruption, so its series are exact.
func (d *Device) ReadSeries(idx int64, ts []float64, out [][hbm2.EntryBytes]byte) {
	d.read(idx, ts, out)
}

// read is the device's one read path. It looks up entry idx's written
// pattern, wire image, corruption and weak cells once, then reads the
// entry at each time in ts. It stores the data of read i in payloads[i]
// unless payloads is nil, and returns the wire image of the last read.
func (d *Device) read(idx int64, ts []float64, payloads [][hbm2.EntryBytes]byte) (wire bitvec.V288) {
	data := d.pattern(idx)
	var clean bitvec.V288
	if d.wireFor != nil {
		clean = d.wireFor(data)
	} else {
		clean = bitvec.FromDataECC(data, [4]byte{})
	}
	stored := clean
	if c, ok := d.corrupt[idx]; ok {
		for i := range stored {
			stored[i] = stored[i]&^c.SetMask[i] | c.SetVal[i]&c.SetMask[i]
		}
		stored = stored.Xor(c.Xor)
	}
	written := d.lastWrite
	if rt, ok := d.rewriteAt[idx]; ok && rt > written {
		written = rt
	}
	weak := d.weak[idx]
	storedParity, haveParity := uint64(0), false
	var last bitvec.V288
	for i, t := range ts {
		// Per read, only the weak cells that have leaked by t change.
		wire = stored
		var parityErr uint64
		for _, w := range weak {
			eff := w.Retention + d.retentionShift
			if eff >= d.RefreshPeriod || t-written <= eff {
				continue
			}
			if w.Bit < bitvec.EntryBits {
				if wire.Bit(w.Bit) != w.LeakTo&1 {
					wire = wire.SetBit(w.Bit, w.LeakTo)
				}
				continue
			}
			if d.ondie == nil {
				continue // orphaned parity cell of a removed stage
			}
			if !haveParity {
				storedParity = d.ondie.Parity(clean)
				haveParity = true
			}
			if p := w.Bit - bitvec.EntryBits; uint(storedParity>>uint(p))&1 != w.LeakTo&1 {
				parityErr |= 1 << uint(p)
			}
		}
		if d.ondie != nil {
			wire = d.ondie.Correct(clean, wire, parityErr)
		}
		switch {
		case payloads == nil:
		case i > 0 && wire == last:
			payloads[i] = payloads[i-1]
		default:
			payloads[i], _ = wire.DataECC()
			last = wire
		}
	}
	return wire
}

// RetireEntries models a row swap to a pristine spare row: all recorded
// damage (weak cells and soft-error corruption) on the given entries is
// removed, because the physical cells holding them are no longer mapped.
// It returns the number of weak cells repaired out of the address space.
func (d *Device) RetireEntries(entries []int64) int {
	repaired := 0
	for _, idx := range entries {
		if cells, ok := d.weak[idx]; ok {
			repaired += len(cells)
			d.weakCount -= len(cells)
			delete(d.weak, idx)
		}
		delete(d.corrupt, idx)
	}
	return repaired
}

// Expected returns the fault-free payload the pattern wrote.
func (d *Device) Expected(idx int64) [hbm2.EntryBytes]byte { return d.pattern(idx) }

// InterestingEntries returns, sorted, every entry that could possibly
// mismatch its written pattern: entries with corruption or weak cells.
// The microbenchmark scans all of memory; only these can produce log
// records, so the simulation visits exactly these.
func (d *Device) InterestingEntries() []int64 {
	seen := make(map[int64]struct{}, len(d.corrupt)+len(d.weak))
	for idx := range d.corrupt {
		seen[idx] = struct{}{}
	}
	for idx := range d.weak {
		seen[idx] = struct{}{}
	}
	out := make([]int64, 0, len(seen))
	for idx := range seen {
		out = append(out, idx)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ExposedWeakCellCount counts damaged cells whose effective retention is
// below the given refresh period — the number a refresh-sweep experiment
// observes (assuming the stored data exercises the leak direction).
func (d *Device) ExposedWeakCellCount(refreshPeriod float64) int {
	n := 0
	for _, cells := range d.weak {
		for _, w := range cells {
			if w.Retention+d.retentionShift < refreshPeriod {
				n++
			}
		}
	}
	return n
}

// RangeWeakCells calls fn for every damaged cell without copying; fn
// returning false stops the iteration.
func (d *Device) RangeWeakCells(fn func(entry int64, w WeakCell) bool) {
	for entry, cells := range d.weak {
		for _, w := range cells {
			if !fn(entry, w) {
				return
			}
		}
	}
}

// WeakCells returns a copy of all damaged cells keyed by entry.
func (d *Device) WeakCells() map[int64][]WeakCell {
	out := make(map[int64][]WeakCell, len(d.weak))
	for k, v := range d.weak {
		out[k] = append([]WeakCell(nil), v...)
	}
	return out
}
