// Package faults is the generative soft-error model behind the simulated
// neutron beam: it maps radiation events to physical fault sites in the
// HBM2 hierarchy and expands each site into the entry-level corruption the
// paper's measurements observed (§5).
//
// The event mix is calibrated to the published distributions (Table 1,
// Fig. 4): this is the one place in the reproduction where the paper's
// measured numbers are inputs rather than outputs — the real generator was
// the ChipIR beam, which we do not have (see DESIGN.md, Substitutions).
// Everything downstream (the microbenchmark, logging, filtering and
// classification) measures the generated errors blind.
//
// Structural faithfulness is preserved: byte-aligned errors come from
// mat-local faults (one 8b mat slice of a row), multi-entry breadth comes
// from shared row/column circuitry, and whole-entry errors come from
// subarray- and bank-level logic, so breadth and alignment flow through
// the real geometry.
package faults

import (
	"math"
	"math/rand"

	"hbm2ecc/internal/bitvec"
	"hbm2ecc/internal/dram"
	"hbm2ecc/internal/hbm2"
)

// Kind enumerates the modeled fault classes.
type Kind int

const (
	// CellStrike flips one DRAM bitcell (SBSE).
	CellStrike Kind = iota
	// MultiCell2 flips two cells in adjacent mats (a "2 Bits" pattern).
	MultiCell2
	// MultiCell3 flips three cells in adjacent mats ("3 Bits").
	MultiCell3
	// PinTransient glitches one pin for one burst ("1 Pin").
	PinTransient
	// MatColumn upsets one mat's column circuitry: the same single bit
	// position across many rows (SBME).
	MatColumn
	// LocalWordline upsets one mat's local wordline: byte-aligned
	// corruption of that mat's 8b slice across 1..64 columns of a row.
	LocalWordline
	// BeatLogic upsets shared column/IO logic for one 64b beat across
	// many entries ("1 Beat").
	BeatLogic
	// SubarrayLogic upsets a subarray's row circuitry: whole-entry
	// corruption across the columns of one row ("1 Entry", modest breadth).
	SubarrayLogic
	// BankLogic upsets bank-global circuitry: whole-entry corruption
	// with long-tailed breadth across many rows (the Fig. 4b tail).
	BankLogic
	NumKinds
)

func (k Kind) String() string {
	switch k {
	case CellStrike:
		return "CellStrike"
	case MultiCell2:
		return "MultiCell2"
	case MultiCell3:
		return "MultiCell3"
	case PinTransient:
		return "PinTransient"
	case MatColumn:
		return "MatColumn"
	case LocalWordline:
		return "LocalWordline"
	case BeatLogic:
		return "BeatLogic"
	case SubarrayLogic:
		return "SubarrayLogic"
	case BankLogic:
		return "BankLogic"
	default:
		return "Kind(?)"
	}
}

// ArrayFault reports whether the fault class strikes storage cells (rate
// proportional to exposure time) rather than access logic (rate
// proportional to memory activity) — the §5 utilization experiment.
func (k Kind) ArrayFault() bool {
	switch k {
	case CellStrike, MultiCell2, MultiCell3:
		return true
	default:
		return false
	}
}

// DefaultMix is the event-class mixture calibrated to Table 1: cell
// strikes and mat-column faults both manifest as "1 Bit" patterns
// (73.98%), local wordline faults as "1 Byte" (22.56%), and so on.
var DefaultMix = [NumKinds]float64{
	CellStrike:    0.6500,
	MatColumn:     0.0898,
	LocalWordline: 0.2256,
	MultiCell2:    0.0011,
	MultiCell3:    0.0003,
	PinTransient:  0.0019,
	BeatLogic:     0.0090,
	SubarrayLogic: 0.0112,
	BankLogic:     0.0111,
}

// StuckProb is the probability that a logic fault manifests as a stuck
// region (whose visibility depends on the written data — the inversion
// errors of Fig. 5) rather than random corruption. Only stuck regions
// written with opposing data appear as full inversions, so the observed
// inversion share across the three data patterns is roughly a third of
// this value (the paper observes ~15%).
const StuckProb = 0.45

// EntryEffect is one entry's share of an event.
type EntryEffect struct {
	Entry int64
	Corr  dram.Corruption
}

// Event is one expanded radiation event.
type Event struct {
	Kind    Kind
	Effects []EntryEffect
}

// Injector generates events against a device geometry.
type Injector struct {
	Cfg hbm2.Config
	Mix [NumKinds]float64
	rng *rand.Rand
}

// NewInjector builds a deterministic injector.
func NewInjector(cfg hbm2.Config, seed int64) *Injector {
	return &Injector{Cfg: cfg, Mix: DefaultMix, rng: rand.New(rand.NewSource(seed))}
}

// RandomKind draws an event class from the mixture, optionally restricted
// to array or logic faults (for rate-splitting by utilization).
func (in *Injector) RandomKind(arrayOnly, logicOnly bool) Kind {
	total := 0.0
	for k := Kind(0); k < NumKinds; k++ {
		if arrayOnly && !k.ArrayFault() || logicOnly && k.ArrayFault() {
			continue
		}
		total += in.Mix[k]
	}
	x := in.rng.Float64() * total
	for k := Kind(0); k < NumKinds; k++ {
		if arrayOnly && !k.ArrayFault() || logicOnly && k.ArrayFault() {
			continue
		}
		x -= in.Mix[k]
		if x < 0 {
			return k
		}
	}
	return CellStrike
}

// NewEvent expands a fault of the given kind at a random site.
func (in *Injector) NewEvent(kind Kind) Event {
	switch kind {
	case CellStrike:
		return in.cellStrike(1)
	case MultiCell2:
		return in.cellStrike(2)
	case MultiCell3:
		return in.cellStrike(3)
	case PinTransient:
		return in.pinTransient()
	case MatColumn:
		return in.matColumn()
	case LocalWordline:
		return in.localWordline()
	case BeatLogic:
		return in.beatLogic()
	case SubarrayLogic:
		return in.subarrayLogic()
	case BankLogic:
		return in.bankLogic()
	default:
		panic("faults: unknown kind")
	}
}

// RandomEventIn draws an event from the full mixture and rebases its
// entry effects into the half-open arena [lo, hi): the anchor entry is
// re-drawn uniformly inside the arena and every effect keeps its entry
// delta relative to the event's first effect, wrapped modulo the arena
// size. This is the conditional distribution "the event struck live
// application data" that the workload outcome engine samples from — a
// random site on a 32GB device would miss a kilobyte-scale tensor arena
// essentially always, so the footprint fraction is factored out into the
// FIT weighting (DefaultSourceFIT) instead of being re-sampled.
func (in *Injector) RandomEventIn(lo, hi int64) Event {
	ev := in.NewEventIn(in.RandomKind(false, false), lo, hi)
	return ev
}

// NewEventIn expands a fault of the given kind rebased into [lo, hi).
// See RandomEventIn. It panics when the arena is empty.
func (in *Injector) NewEventIn(kind Kind, lo, hi int64) Event {
	if hi <= lo {
		panic("faults: empty arena")
	}
	ev := in.NewEvent(kind)
	span := hi - lo
	anchor := in.rng.Int63n(span)
	base := ev.Effects[0].Entry
	for i := range ev.Effects {
		d := (ev.Effects[i].Entry - base) % span
		ev.Effects[i].Entry = lo + ((anchor+d)%span+span)%span
	}
	return ev
}

func (in *Injector) randomEntry() int64 {
	return int64(in.rng.Int63n(in.Cfg.Entries()))
}

// dataBitToWire maps a data-payload bit (0..255) to its wire position.
func dataBitToWire(k int) int {
	byteIdx := k / 8
	return bitvec.ByteBase((byteIdx/8)*bitvec.BytesPer72+byteIdx%8) + k%8
}

func (in *Injector) cellStrike(n int) Event {
	entry := in.randomEntry()
	var xor bitvec.V288
	// Adjacent mats, same bit position and column: adjacent byte indices
	// with the same in-byte bit (different bytes so that n>=2 classifies
	// as "2/3 Bits", never "1 Byte").
	startByte := in.rng.Intn(32 - (n - 1))
	bit := in.rng.Intn(8)
	for i := 0; i < n; i++ {
		xor = xor.FlipBit(dataBitToWire((startByte+i)*8 + bit))
	}
	kind := CellStrike
	if n == 2 {
		kind = MultiCell2
	} else if n == 3 {
		kind = MultiCell3
	}
	return Event{Kind: kind, Effects: []EntryEffect{{Entry: entry, Corr: dram.Corruption{Xor: xor}}}}
}

func (in *Injector) pinTransient() Event {
	entry := in.randomEntry()
	// Data pins only: the microbenchmark (ECC disabled) cannot observe
	// check-pin glitches.
	pin := in.rng.Intn(bitvec.DataBits)
	var xor bitvec.V288
	nbits := 2 + in.rng.Intn(3)
	beats := in.rng.Perm(4)[:nbits]
	for _, b := range beats {
		xor = xor.FlipBit(b*bitvec.BeatBits + pin)
	}
	return Event{Kind: PinTransient, Effects: []EntryEffect{{Entry: entry, Corr: dram.Corruption{Xor: xor}}}}
}

// logUniform draws an integer in [1, max] with log-uniform spread.
func (in *Injector) logUniform(max int) int {
	if max <= 1 {
		return 1
	}
	lo, hi := 0.0, logf(float64(max))
	v := int(expf(lo + in.rng.Float64()*(hi-lo)))
	if v < 1 {
		v = 1
	}
	if v > max {
		v = max
	}
	return v
}

func (in *Injector) matColumn() Event {
	// One mat, one column selection, one bit position; affects the same
	// single bit across a span of rows (SBME).
	co := in.Cfg.CoordOf(in.randomEntry())
	byteIdx := in.rng.Intn(32)
	bit := in.rng.Intn(8)
	wireBit := dataBitToWire(byteIdx*8 + bit)
	// Column-circuitry faults always span several rows (span >= 2, since
	// logUniform >= 1), so they classify as SBME rather than SBSE.
	span := 1 + in.logUniform(hbm2.RowsPerSubarray-1)
	startRow := in.rng.Intn(hbm2.RowsPerSubarray - span + 1)
	var effects []EntryEffect
	for r := 0; r < span; r++ {
		cc := co
		cc.Row = startRow + r
		var xor bitvec.V288
		effects = append(effects, EntryEffect{
			Entry: in.Cfg.EntryIndex(cc),
			Corr:  dram.Corruption{Xor: xor.FlipBit(wireBit)},
		})
	}
	return Event{Kind: MatColumn, Effects: effects}
}

// regionCorruption corrupts the given wire bits: stuck-at with probability
// StuckProb, otherwise a uniform-random flip of each bit (requiring at
// least minBits flips). The bits must be distinct. Each coin is
// rng.Int63()>>32&1, which is what rng.Intn(2) draws, so the bits go
// straight into the corruption's words without changing the rng stream.
func (in *Injector) regionCorruption(wireBits []int, minBits int) dram.Corruption {
	var c dram.Corruption
	if in.rng.Float64() < StuckProb {
		val := uint64(in.rng.Int63() >> 32 & 1)
		for _, b := range wireBits {
			c.SetMask[b>>6] |= 1 << uint(b&63)
			c.SetVal[b>>6] |= val << uint(b&63)
		}
		return c
	}
	for {
		var xor bitvec.V288
		n := 0
		for _, b := range wireBits {
			coin := uint64(in.rng.Int63() >> 32 & 1)
			xor[b>>6] |= coin << uint(b&63)
			n += int(coin)
		}
		if n >= minBits {
			c.Xor = xor
			return c
		}
	}
}

func (in *Injector) localWordline() Event {
	// One mat's slice of one row: byte-aligned corruption at the same
	// byte position across 1..64 columns.
	co := in.Cfg.CoordOf(in.randomEntry())
	byteIdx := in.rng.Intn(32)
	base := bitvec.ByteBase((byteIdx/8)*bitvec.BytesPer72 + byteIdx%8)
	bits := make([]int, 8)
	for k := range bits {
		bits[k] = base + k
	}
	span := in.logUniform(hbm2.ColumnsPerRow)
	startCol := in.rng.Intn(hbm2.ColumnsPerRow - span + 1)
	var effects []EntryEffect
	for cidx := 0; cidx < span; cidx++ {
		cc := co
		cc.Column = startCol + cidx
		effects = append(effects, EntryEffect{
			Entry: in.Cfg.EntryIndex(cc),
			Corr:  in.regionCorruption(bits, 2),
		})
	}
	return Event{Kind: LocalWordline, Effects: effects}
}

func (in *Injector) beatLogic() Event {
	// One beat (64b word + its check bits; the data-visible part is the
	// word) corrupted across a span of entries in one bank.
	co := in.Cfg.CoordOf(in.randomEntry())
	beat := in.rng.Intn(bitvec.Beats)
	bits := make([]int, 0, bitvec.DataBits)
	for p := 0; p < bitvec.DataBits; p++ {
		bits = append(bits, beat*bitvec.BeatBits+p)
	}
	span := in.logUniform(hbm2.ColumnsPerRow)
	startCol := in.rng.Intn(hbm2.ColumnsPerRow - span + 1)
	var effects []EntryEffect
	for cidx := 0; cidx < span; cidx++ {
		cc := co
		cc.Column = startCol + cidx
		effects = append(effects, EntryEffect{
			Entry: in.Cfg.EntryIndex(cc),
			Corr:  in.regionCorruption(bits, 4),
		})
	}
	return Event{Kind: BeatLogic, Effects: effects}
}

// allDataBits lists the wire positions of the 256 data bits, the region
// of subarray and bank logic faults.
var allDataBits = func() []int {
	bits := make([]int, 0, 256)
	for k := 0; k < 256; k++ {
		bits = append(bits, dataBitToWire(k))
	}
	return bits
}()

func (in *Injector) subarrayLogic() Event {
	// One row, all mats: whole-entry corruption across 1..64 columns.
	co := in.Cfg.CoordOf(in.randomEntry())
	span := in.logUniform(hbm2.ColumnsPerRow)
	startCol := in.rng.Intn(hbm2.ColumnsPerRow - span + 1)
	var effects []EntryEffect
	for cidx := 0; cidx < span; cidx++ {
		cc := co
		cc.Column = startCol + cidx
		effects = append(effects, EntryEffect{
			Entry: in.Cfg.EntryIndex(cc),
			Corr:  in.regionCorruption(allDataBits, 4),
		})
	}
	return Event{Kind: SubarrayLogic, Effects: effects}
}

// MaxBankBreadth caps the long-tail breadth of bank-level events; the
// paper's broadest observed error touched 5,359 entries.
const MaxBankBreadth = 6000

func (in *Injector) bankLogic() Event {
	// Bank-global logic: whole-entry corruption with long-tailed breadth
	// across consecutive rows of one bank.
	co := in.Cfg.CoordOf(in.randomEntry())
	breadth := in.logUniform(MaxBankBreadth)
	effects := make([]EntryEffect, 0, breadth)
	row, col := co.Row, 0
	for i := 0; i < breadth; i++ {
		cc := co
		cc.Row = row
		cc.Column = col
		effects = append(effects, EntryEffect{
			Entry: in.Cfg.EntryIndex(cc),
			Corr:  in.regionCorruption(allDataBits, 4),
		})
		col++
		if col == hbm2.ColumnsPerRow {
			col = 0
			row = (row + 1) % hbm2.RowsPerSubarray
		}
	}
	return Event{Kind: BankLogic, Effects: effects}
}

func logf(x float64) float64 { return math.Log(x) }
func expf(x float64) float64 { return math.Exp(x) }
