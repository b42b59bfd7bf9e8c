package faults

import (
	"math"
	"reflect"
	"testing"

	"hbm2ecc/internal/bitvec"
	"hbm2ecc/internal/dram"
	"hbm2ecc/internal/errormodel"
	"hbm2ecc/internal/hbm2"
)

func TestMixSumsToOne(t *testing.T) {
	sum := 0.0
	for _, p := range DefaultMix {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("DefaultMix sums to %v", sum)
	}
}

// visibleXor computes an event's per-entry data-visible error mask under
// an all-ones written pattern (stuck-at-0 regions fully visible).
func visibleXor(e EntryEffect) bitvec.V288 {
	ones := bitvec.V288{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), 0xFFFFFFFF}
	wire := ones
	for i := range wire {
		wire[i] = wire[i]&^e.Corr.SetMask[i] | e.Corr.SetVal[i]&e.Corr.SetMask[i]
	}
	wire = wire.Xor(e.Corr.Xor)
	return wire.Xor(ones)
}

func TestCellStrikeShape(t *testing.T) {
	in := NewInjector(hbm2.V100(), 1)
	for trial := 0; trial < 500; trial++ {
		ev := in.NewEvent(CellStrike)
		if len(ev.Effects) != 1 {
			t.Fatal("cell strike must hit one entry")
		}
		x := visibleXor(ev.Effects[0])
		if x.OnesCount() != 1 {
			t.Fatalf("cell strike flips %d bits", x.OnesCount())
		}
		if errormodel.Classify(x) != errormodel.Bit1 {
			t.Fatalf("cell strike classifies as %v", errormodel.Classify(x))
		}
	}
}

func TestMultiCellShapes(t *testing.T) {
	in := NewInjector(hbm2.V100(), 2)
	for trial := 0; trial < 500; trial++ {
		if x := visibleXor(in.NewEvent(MultiCell2).Effects[0]); errormodel.Classify(x) != errormodel.Bits2 {
			t.Fatalf("MultiCell2 classifies as %v", errormodel.Classify(x))
		}
		if x := visibleXor(in.NewEvent(MultiCell3).Effects[0]); errormodel.Classify(x) != errormodel.Bits3 {
			t.Fatalf("MultiCell3 classifies as %v", errormodel.Classify(x))
		}
	}
}

func TestPinTransientShape(t *testing.T) {
	in := NewInjector(hbm2.V100(), 3)
	for trial := 0; trial < 500; trial++ {
		ev := in.NewEvent(PinTransient)
		x := visibleXor(ev.Effects[0])
		if errormodel.Classify(x) != errormodel.Pin1 {
			t.Fatalf("pin transient classifies as %v", errormodel.Classify(x))
		}
	}
}

func TestLocalWordlineByteAligned(t *testing.T) {
	in := NewInjector(hbm2.V100(), 4)
	multi := 0
	for trial := 0; trial < 500; trial++ {
		ev := in.NewEvent(LocalWordline)
		if len(ev.Effects) > 1 {
			multi++
		}
		var firstByte = -1
		for _, eff := range ev.Effects {
			x := visibleXor(eff)
			if x.IsZero() {
				// Stuck-at-1 region under all-ones data: invisible, as
				// data-dependent inversion faults should be.
				continue
			}
			if !x.SameByte() {
				t.Fatal("local wordline error not byte-aligned")
			}
			by := bitvec.ByteOfBit(x.Bits()[0])
			if firstByte == -1 {
				firstByte = by
			} else if by != firstByte {
				t.Fatal("local wordline must hit the same mat slice in every entry")
			}
			if x.OnesCount() < 2 {
				t.Fatal("multi-bit fault produced <2 visible bits under ones pattern")
			}
		}
		// All affected entries must share a row.
		cfg := hbm2.V100()
		base := cfg.CoordOf(ev.Effects[0].Entry)
		for _, eff := range ev.Effects {
			co := cfg.CoordOf(eff.Entry)
			co.Column = base.Column
			if co != base {
				t.Fatal("local wordline spans rows")
			}
		}
	}
	if multi == 0 {
		t.Fatal("expected some multi-entry wordline events")
	}
}

func TestBeatLogicShape(t *testing.T) {
	in := NewInjector(hbm2.V100(), 5)
	for trial := 0; trial < 300; trial++ {
		ev := in.NewEvent(BeatLogic)
		for _, eff := range ev.Effects {
			x := visibleXor(eff)
			if x.IsZero() {
				continue
			}
			cls := errormodel.Classify(x)
			if cls != errormodel.Beat1 && cls != errormodel.Byte1 {
				t.Fatalf("beat logic classifies as %v", cls)
			}
			if !x.SameBeat() {
				t.Fatal("beat logic error spans beats")
			}
		}
	}
}

func TestSubarrayLogicWholeEntry(t *testing.T) {
	in := NewInjector(hbm2.V100(), 6)
	sawEntry := false
	for trial := 0; trial < 300; trial++ {
		ev := in.NewEvent(SubarrayLogic)
		for _, eff := range ev.Effects {
			x := visibleXor(eff)
			if x.IsZero() {
				continue
			}
			if errormodel.Classify(x) == errormodel.Entry1 {
				sawEntry = true
			}
		}
	}
	if !sawEntry {
		t.Fatal("subarray logic should commonly produce whole-entry errors")
	}
}

func TestBankLogicLongTail(t *testing.T) {
	in := NewInjector(hbm2.V100(), 7)
	maxBreadth := 0
	for trial := 0; trial < 400; trial++ {
		ev := in.NewEvent(BankLogic)
		if n := len(ev.Effects); n > maxBreadth {
			maxBreadth = n
		}
		if len(ev.Effects) > MaxBankBreadth {
			t.Fatal("bank breadth exceeds cap")
		}
		// Distinct entries.
		seen := map[int64]bool{}
		for _, eff := range ev.Effects {
			if seen[eff.Entry] {
				t.Fatal("bank event repeats an entry")
			}
			seen[eff.Entry] = true
		}
	}
	if maxBreadth < 500 {
		t.Fatalf("long tail too short: max breadth %d", maxBreadth)
	}
}

// TestReseedMatchesNewInjector: a used injector reseeded with s draws
// the events of a fresh NewInjector(cfg, s).
func TestReseedMatchesNewInjector(t *testing.T) {
	cfg := hbm2.Config{Stacks: 1}
	in := NewInjector(cfg, 99)
	for seed := int64(0); seed < 40; seed++ {
		in.RandomEventIn(0, 1<<16) // leave the stream mid-way
		in.Reseed(seed)
		fresh := NewInjector(cfg, seed)
		for i := 0; i < 3; i++ {
			if got, want := in.RandomEventIn(0, 1<<16), fresh.RandomEventIn(0, 1<<16); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d event %d: reseeded %+v, fresh %+v", seed, i, got, want)
			}
		}
	}
}

func TestRandomKindFiltering(t *testing.T) {
	in := NewInjector(hbm2.V100(), 8)
	for trial := 0; trial < 2000; trial++ {
		if k := in.RandomKind(true, false); !k.ArrayFault() {
			t.Fatalf("arrayOnly returned %v", k)
		}
		if k := in.RandomKind(false, true); k.ArrayFault() {
			t.Fatalf("logicOnly returned %v", k)
		}
	}
}

func TestRandomEventMixture(t *testing.T) {
	in := NewInjector(hbm2.V100(), 9)
	var counts [NumKinds]int
	n := 30000
	for i := 0; i < n; i++ {
		counts[in.RandomKind(false, false)]++
	}
	got := float64(counts[CellStrike]) / float64(n)
	if math.Abs(got-DefaultMix[CellStrike]) > 0.02 {
		t.Fatalf("CellStrike frequency %.3f, want %.3f", got, DefaultMix[CellStrike])
	}
}

func TestStuckRegionsInvisibleUnderMatchingData(t *testing.T) {
	// Under an all-zero pattern, stuck-at-0 wordline faults are invisible;
	// verify some events produce no visible corruption on zeros but do on
	// ones (the data-dependence of inversion errors).
	in := NewInjector(hbm2.V100(), 10)
	invisible := 0
	for trial := 0; trial < 2000; trial++ {
		ev := in.NewEvent(LocalWordline)
		eff := ev.Effects[0]
		var zeros bitvec.V288
		wire := zeros
		for i := range wire {
			wire[i] = wire[i]&^eff.Corr.SetMask[i] | eff.Corr.SetVal[i]&eff.Corr.SetMask[i]
		}
		wire = wire.Xor(eff.Corr.Xor)
		if wire.IsZero() && !visibleXor(eff).IsZero() {
			invisible++
		}
	}
	if invisible == 0 {
		t.Fatal("expected some stuck-at-0 faults invisible under zero data")
	}
}

func TestKindStrings(t *testing.T) {
	for k := Kind(0); k < NumKinds; k++ {
		if k.String() == "Kind(?)" {
			t.Fatalf("kind %d has no name", k)
		}
	}
}

func TestRandomEventInBounds(t *testing.T) {
	in := NewInjector(hbm2.V100(), 21)
	const lo, hi = 100, 356
	for i := 0; i < 2000; i++ {
		ev := in.RandomEventIn(lo, hi)
		if len(ev.Effects) == 0 {
			t.Fatalf("event %d: no effects", i)
		}
		for _, eff := range ev.Effects {
			if eff.Entry < lo || eff.Entry >= hi {
				t.Fatalf("event %d (%v): entry %d outside [%d, %d)", i, ev.Kind, eff.Entry, lo, hi)
			}
		}
	}
}

func TestRandomEventInDeterministic(t *testing.T) {
	a := NewInjector(hbm2.V100(), 33)
	b := NewInjector(hbm2.V100(), 33)
	for i := 0; i < 200; i++ {
		ea, eb := a.RandomEventIn(0, 512), b.RandomEventIn(0, 512)
		if ea.Kind != eb.Kind || len(ea.Effects) != len(eb.Effects) {
			t.Fatalf("event %d diverged: %v vs %v", i, ea.Kind, eb.Kind)
		}
		for j := range ea.Effects {
			if ea.Effects[j].Entry != eb.Effects[j].Entry || ea.Effects[j].Corr != eb.Effects[j].Corr {
				t.Fatalf("event %d effect %d diverged", i, j)
			}
		}
	}
}

func TestNewEventInPanicsOnEmptyArena(t *testing.T) {
	in := NewInjector(hbm2.V100(), 34)
	defer func() {
		if recover() == nil {
			t.Error("empty arena did not panic")
		}
	}()
	in.NewEventIn(in.RandomKind(false, false), 5, 5)
}

// regionCorruptionRef is the bit-at-a-time form of regionCorruption: one
// rng.Intn(2) and one SetBit/FlipBit per bit.
func (in *Injector) regionCorruptionRef(wireBits []int, minBits int) dram.Corruption {
	var c dram.Corruption
	if in.rng.Float64() < StuckProb {
		val := uint(0)
		if in.rng.Intn(2) == 1 {
			val = 1
		}
		for _, b := range wireBits {
			c.SetMask = c.SetMask.SetBit(b, 1)
			c.SetVal = c.SetVal.SetBit(b, val)
		}
		return c
	}
	for {
		var xor bitvec.V288
		n := 0
		for _, b := range wireBits {
			if in.rng.Intn(2) == 1 {
				xor = xor.FlipBit(b)
				n++
			}
		}
		if n >= minBits {
			c.Xor = xor
			return c
		}
	}
}

func TestRegionCorruptionMatchesBitLoop(t *testing.T) {
	byteBits := make([]int, 8)
	for k := range byteBits {
		byteBits[k] = bitvec.ByteBase(13) + k
	}
	stuck, flipped := 0, 0
	for _, bits := range [][]int{allDataBits, byteBits} {
		for _, minBits := range []int{2, 4} {
			for seed := int64(0); seed < 200; seed++ {
				fast, ref := NewInjector(hbm2.V100(), seed), NewInjector(hbm2.V100(), seed)
				for call := 0; call < 8; call++ {
					got, want := fast.regionCorruption(bits, minBits), ref.regionCorruptionRef(bits, minBits)
					if got != want {
						t.Fatalf("%d bits, minBits %d, seed %d, call %d: corruption %+v, bit loop %+v",
							len(bits), minBits, seed, call, got, want)
					}
					if got.Xor.IsZero() {
						stuck++
					} else {
						flipped++
					}
				}
				if a, b := fast.rng.Int63(), ref.rng.Int63(); a != b {
					t.Fatalf("%d bits, minBits %d, seed %d: next draw %d, bit loop %d", len(bits), minBits, seed, a, b)
				}
			}
		}
	}
	if stuck == 0 || flipped == 0 {
		t.Fatalf("stuck %d, flipped %d: both branches must run", stuck, flipped)
	}
}
