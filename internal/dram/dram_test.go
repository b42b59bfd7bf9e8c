package dram

import (
	"slices"
	"testing"

	"hbm2ecc/internal/bitvec"
	"hbm2ecc/internal/hbm2"
)

func patConst(b byte) PatternFn {
	return func(int64) [hbm2.EntryBytes]byte {
		var d [hbm2.EntryBytes]byte
		for i := range d {
			d[i] = b
		}
		return d
	}
}

// readData returns the 32B payload ReadWire delivers for entry idx at t.
func readData(d *Device, idx int64, t float64) [hbm2.EntryBytes]byte {
	data, _ := d.ReadWire(idx, t).DataECC()
	return data
}

func TestCleanReads(t *testing.T) {
	d := New(hbm2.V100(), DefaultRefreshPeriod)
	d.WriteAll(patConst(0x5A), 0)
	for _, idx := range []int64{0, 12345, 1 << 29} {
		if got := readData(d, idx, 1.0); got != patConst(0x5A)(idx) {
			t.Fatalf("entry %d corrupted on clean device", idx)
		}
	}
	if len(d.InterestingEntries()) != 0 {
		t.Fatal("clean device must have no interesting entries")
	}
}

func TestCorruptionXor(t *testing.T) {
	d := New(hbm2.V100(), DefaultRefreshPeriod)
	d.WriteAll(patConst(0), 0)
	var c Corruption
	c.Xor = c.Xor.FlipBit(bitvec.ByteBase(3) + 2)
	d.InjectCorruption(42, c)

	got := readData(d, 42, 1.0)
	if got[3] != 0x04 {
		t.Fatalf("byte 3 = %#x, want 0x04", got[3])
	}
	// Other entries unaffected.
	if readData(d, 43, 1.0) != patConst(0)(43) {
		t.Fatal("neighbor corrupted")
	}
	// A write clears the corruption (soft error semantics).
	d.WriteAll(patConst(0), 2.0)
	if readData(d, 42, 3.0) != patConst(0)(42) {
		t.Fatal("write did not clear corruption")
	}
}

func TestCorruptionStuckAt(t *testing.T) {
	// A stuck-at-0 region is invisible under all-zero data but inverts
	// under all-ones data — the data-dependent inversion errors of §5.
	d := New(hbm2.V100(), DefaultRefreshPeriod)
	var c Corruption
	base := bitvec.ByteBase(7)
	for k := 0; k < 8; k++ {
		c.SetMask = c.SetMask.SetBit(base+k, 1)
	}
	// SetVal stays zero: stuck at 0.
	d.WriteAll(patConst(0), 0)
	d.InjectCorruption(7, c)
	if got := readData(d, 7, 0.5); got != patConst(0)(7) {
		t.Fatal("stuck-at-0 visible under all-zero data")
	}
	d2 := New(hbm2.V100(), DefaultRefreshPeriod)
	d2.WriteAll(patConst(0xFF), 0)
	d2.InjectCorruption(7, c)
	got := readData(d2, 7, 0.5)
	if got[7] != 0 {
		t.Fatalf("stuck byte reads %#x under all-ones", got[7])
	}
	for i, b := range got {
		if i != 7 && b != 0xFF {
			t.Fatalf("byte %d clobbered", i)
		}
	}
}

func TestCorruptionMerge(t *testing.T) {
	var a, b Corruption
	a.Xor = a.Xor.FlipBit(0)
	b.Xor = b.Xor.FlipBit(0).FlipBit(1)
	b.SetMask = b.SetMask.SetBit(10, 1)
	b.SetVal = b.SetVal.SetBit(10, 1)
	a.Merge(b)
	if a.Xor.Bit(0) != 0 || a.Xor.Bit(1) != 1 {
		t.Fatal("xor merge wrong")
	}
	if a.SetMask.Bit(10) != 1 || a.SetVal.Bit(10) != 1 {
		t.Fatal("set merge wrong")
	}
	if (Corruption{}).IsZero() != true || a.IsZero() {
		t.Fatal("IsZero wrong")
	}
}

func TestWeakCellRetention(t *testing.T) {
	d := New(hbm2.V100(), 0.016)
	d.WriteAll(patConst(0xFF), 0)
	bit := bitvec.ByteBase(0) // bit 0 of byte 0
	d.AddWeakCell(99, WeakCell{Bit: bit, Retention: 0.008, LeakTo: 0})

	// Before the retention time elapses the cell still reads correctly.
	if got := readData(d, 99, 0.004); got[0] != 0xFF {
		t.Fatalf("cell leaked too early: %#x", got[0])
	}
	// After retention, it reads 0.
	if got := readData(d, 99, 0.010); got[0] != 0xFE {
		t.Fatalf("cell did not leak: %#x", got[0])
	}
	// With a refresh period below the retention time, refresh saves it.
	d.RefreshPeriod = 0.004
	if got := readData(d, 99, 0.010); got[0] != 0xFF {
		t.Fatalf("refresh did not save the cell: %#x", got[0])
	}
}

func TestWeakCellUnidirectional(t *testing.T) {
	// A 1->0 leaking cell is invisible when a 0 is stored.
	d := New(hbm2.V100(), 0.016)
	d.WriteAll(patConst(0), 0)
	d.AddWeakCell(5, WeakCell{Bit: 0, Retention: 0.001, LeakTo: 0})
	if got := readData(d, 5, 1.0); got[0] != 0 {
		t.Fatalf("leak to stored value changed data: %#x", got[0])
	}
	// Writing ones exposes it.
	d.WriteAll(patConst(0xFF), 2.0)
	if got := readData(d, 5, 3.0); got[0] != 0xFE {
		t.Fatalf("leak not exposed: %#x", got[0])
	}
}

func TestExposedWeakCellCountAndAnnealing(t *testing.T) {
	d := New(hbm2.V100(), 0.016)
	retentions := []float64{0.002, 0.010, 0.020, 0.040}
	for i, r := range retentions {
		d.AddWeakCell(int64(i), WeakCell{Bit: 0, Retention: r})
	}
	if got := d.ExposedWeakCellCount(0.016); got != 2 {
		t.Fatalf("exposed at 16ms = %d, want 2", got)
	}
	if got := d.ExposedWeakCellCount(0.048); got != 4 {
		t.Fatalf("exposed at 48ms = %d, want 4", got)
	}
	// Annealing shifts retention up: fewer cells exposed.
	d.SetRetentionShift(0.007)
	if got := d.ExposedWeakCellCount(0.016); got != 1 {
		t.Fatalf("exposed after annealing = %d, want 1", got)
	}
	if d.RetentionShift() != 0.007 {
		t.Fatal("RetentionShift accessor wrong")
	}
	if d.WeakCellCount() != 4 {
		t.Fatal("WeakCellCount must count all damaged cells")
	}
	if got := len(d.WeakCells()); got != 4 {
		t.Fatalf("WeakCells() entries = %d", got)
	}
}

func TestInterestingEntriesSorted(t *testing.T) {
	d := New(hbm2.V100(), 0.016)
	d.InjectCorruption(500, Corruption{Xor: bitvec.V288{}.FlipBit(1)})
	d.AddWeakCell(100, WeakCell{Bit: 0, Retention: 1})
	d.AddWeakCell(500, WeakCell{Bit: 1, Retention: 1})
	got := d.InterestingEntries()
	if len(got) != 2 || got[0] != 100 || got[1] != 500 {
		t.Fatalf("InterestingEntries = %v", got)
	}
}

// eccEncoder is a standard-layout wire encoder: the payload followed by
// the check bytes gen computes from it.
func eccEncoder(gen func(data [hbm2.EntryBytes]byte) [4]byte) func([hbm2.EntryBytes]byte) bitvec.V288 {
	return func(data [hbm2.EntryBytes]byte) bitvec.V288 { return bitvec.FromDataECC(data, gen(data)) }
}

func TestECCGenerator(t *testing.T) {
	d := New(hbm2.V100(), 0.016)
	d.SetWireEncoder(eccEncoder(func(data [hbm2.EntryBytes]byte) [4]byte {
		return [4]byte{data[0], data[1], data[2], data[3]}
	}))
	d.WriteAll(patConst(0xAB), 0)
	wire := d.ReadWire(0, 1.0)
	_, ecc := wire.DataECC()
	if ecc != [4]byte{0xAB, 0xAB, 0xAB, 0xAB} {
		t.Fatalf("ecc area = %v", ecc)
	}
}

func TestRewriteEntryClearsCorruptionAndRestartsLeak(t *testing.T) {
	d := New(hbm2.V100(), 0.016)
	d.WriteAll(patConst(0xFF), 0)

	// Soft-error corruption is cleared by a rewrite (charge replaced).
	var c Corruption
	c.Xor = c.Xor.FlipBit(bitvec.ByteBase(0))
	d.InjectCorruption(3, c)
	if got := readData(d, 3, 0.001); got[0] != 0xFE {
		t.Fatalf("corruption not visible: %#x", got[0])
	}
	d.RewriteEntry(3, 0.002)
	if got := readData(d, 3, 0.003); got[0] != 0xFF {
		t.Fatalf("rewrite did not clear corruption: %#x", got[0])
	}

	// A weak cell's leak clock restarts at the rewrite time.
	d.AddWeakCell(9, WeakCell{Bit: bitvec.ByteBase(0), Retention: 0.008, LeakTo: 0})
	if got := readData(d, 9, 0.010); got[0] != 0xFE {
		t.Fatalf("weak cell did not leak from t=0: %#x", got[0])
	}
	d.RewriteEntry(9, 0.009)
	if got := readData(d, 9, 0.012); got[0] != 0xFF {
		t.Fatalf("rewrite did not restart leak clock: %#x", got[0])
	}
	if got := readData(d, 9, 0.020); got[0] != 0xFE {
		t.Fatalf("weak cell did not leak again after rewrite: %#x", got[0])
	}

	// A full-device write supersedes per-entry rewrite clocks.
	d.WriteAll(patConst(0xFF), 1.0)
	if got := readData(d, 9, 1.004); got[0] != 0xFF {
		t.Fatalf("cell leaked too early after WriteAll: %#x", got[0])
	}
	if got := readData(d, 9, 1.010); got[0] != 0xFE {
		t.Fatalf("cell did not leak after WriteAll: %#x", got[0])
	}
}

func TestEncoderGeneratorInterplay(t *testing.T) {
	d := New(hbm2.V100(), 0.016)
	d.WriteAll(patConst(0xC3), 0)

	// A wire encoder replaces the standard layout wholesale.
	d.SetWireEncoder(func(data [hbm2.EntryBytes]byte) bitvec.V288 {
		var v bitvec.V288
		for i := range v {
			v[i] = ^uint64(0)
		}
		return v.SetByte(0, data[0])
	})
	wire := d.ReadWire(5, 1.0)
	if wire.Byte(0) != 0xC3 || wire.Byte(1) != 0xFF {
		t.Fatalf("wire encoder not in effect: bytes %#x %#x", wire.Byte(0), wire.Byte(1))
	}

	// Installing a standard-layout encoder afterwards replaces it: the
	// payload plus generated check bytes.
	d.SetWireEncoder(eccEncoder(func(data [hbm2.EntryBytes]byte) [4]byte {
		return [4]byte{^data[0], 0, 0, 0}
	}))
	data, ecc := d.ReadWire(5, 1.0).DataECC()
	if data != patConst(0xC3)(5) || ecc != [4]byte{0x3C, 0, 0, 0} {
		t.Fatalf("generator did not supersede encoder: data[0]=%#x ecc=%v", data[0], ecc)
	}

	// A nil encoder clears the ECC area but keeps the standard layout.
	d.SetWireEncoder(nil)
	data, ecc = d.ReadWire(5, 1.0).DataECC()
	if data != patConst(0xC3)(5) || ecc != [4]byte{} {
		t.Fatalf("nil generator did not reset layout: data[0]=%#x ecc=%v", data[0], ecc)
	}
}

func TestRewriteEntryUnderEncoder(t *testing.T) {
	// RewriteEntry interacts with an installed encoder: corruption clears
	// and the weak-cell leak clock restarts against the encoded wire.
	d := New(hbm2.V100(), 0.016)
	d.SetWireEncoder(eccEncoder(func(data [hbm2.EntryBytes]byte) [4]byte {
		return [4]byte{data[0] ^ 0xFF, 0, 0, 0}
	}))
	d.WriteAll(patConst(0x0F), 0)
	cleanWire := d.ReadWire(4, 0.001)

	// Corrupt a check-area bit (wire byte 8 is beat 0's check byte):
	// visible on the wire, invisible in data.
	eccBase := bitvec.ByteBase(8)
	d.InjectCorruption(4, Corruption{Xor: bitvec.V288{}.FlipBit(eccBase)})
	if got := d.ReadWire(4, 0.002); got == cleanWire {
		t.Fatal("check-area corruption not visible on wire")
	}
	if got := readData(d, 4, 0.002); got != patConst(0x0F)(4) {
		t.Fatal("check-area corruption leaked into data")
	}
	d.RewriteEntry(4, 0.003)
	if got := d.ReadWire(4, 0.004); got != cleanWire {
		t.Fatal("rewrite did not clear check-area corruption")
	}

	// A weak cell in the check area leaks against the encoded stored
	// value (check byte is 0x0F^0xFF = 0xF0, so bit 4 stores a 1), and
	// its clock restarts on rewrite.
	d.AddWeakCell(4, WeakCell{Bit: eccBase + 4, Retention: 0.008, LeakTo: 0})
	if got := d.ReadWire(4, 0.012); got == cleanWire {
		t.Fatal("check-area weak cell did not leak")
	}
	d.RewriteEntry(4, 0.011)
	if got := d.ReadWire(4, 0.014); got != cleanWire {
		t.Fatal("rewrite did not restart check-area leak clock")
	}
}

// countingStage is a fake on-die stage with 8 parity cells. Its parity
// is a byte of the clean image, and Correct XORs the parity error into
// the low wire bits, so leaked parity cells reach the data. It counts
// its Correct calls.
type countingStage struct{ corrects int }

func (s *countingStage) ParityBits() int                 { return 8 }
func (s *countingStage) Parity(clean bitvec.V288) uint64 { return clean[1] >> 8 & 0xFF }

func (s *countingStage) Correct(clean, raw bitvec.V288, parityErr uint64) bitvec.V288 {
	s.corrects++
	raw[0] ^= parityErr
	return raw
}

// FuzzReadSeriesVsReadWire requires each read of a series to equal the
// data of ReadWire at the same time, over Xor and stuck-at corruption,
// weak cells on wire and hidden parity bits, a retention shift, a
// rewrite and an ECC generator, and an installed stage to correct each
// read of the series exactly once.
func FuzzReadSeriesVsReadWire(f *testing.F) {
	f.Add([]byte{}, false, false, false)
	f.Add([]byte{7, 3, 0x11, 0x22, 2, 1, 9, 1, 40, 0, 5, 3, 1, 30, 1, 1, 50, 4, 0, 20, 80, 200, 250, 10, 100}, true, true, true)
	f.Add([]byte{200, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 255, 128, 64}, false, true, false)
	f.Fuzz(func(t *testing.T, raw []byte, encoder, stage, rewrite bool) {
		next := func() int {
			if len(raw) == 0 {
				return 0
			}
			b := raw[0]
			raw = raw[1:]
			return int(b)
		}
		d := New(hbm2.V100(), DefaultRefreshPeriod+float64(next())*1e-4)
		st := &countingStage{}
		cells := bitvec.EntryBits
		if stage {
			d.SetOnDie(st)
			cells += st.ParityBits()
		}
		if encoder {
			d.SetWireEncoder(eccEncoder(func(data [hbm2.EntryBytes]byte) [4]byte {
				return [4]byte{data[0] ^ data[5], data[9], ^data[17], data[31]}
			}))
		}
		key := byte(next())
		d.WriteAll(func(idx int64) [hbm2.EntryBytes]byte {
			var data [hbm2.EntryBytes]byte
			for i := range data {
				data[i] = byte(int(idx)*31+i*7) ^ key
			}
			return data
		}, 0)
		const idx = 12345
		for n := next() % 6; n > 0; n-- {
			d.AddWeakCell(idx, WeakCell{
				Bit:       (next()<<8 | next()) % cells,
				Retention: float64(next()) * 2e-4,
				LeakTo:    uint(next() & 1),
			})
		}
		d.SetRetentionShift(float64(int8(next())) * 1e-4)
		if rewrite {
			d.RewriteEntry(idx, float64(next())*1e-4)
		}
		var c Corruption
		for n := next() % 4; n > 0; n-- {
			c.Xor = c.Xor.FlipBit((next()<<8 | next()) % bitvec.EntryBits)
		}
		for n := next() % 3; n > 0; n-- {
			b := (next()<<8 | next()) % bitvec.EntryBits
			c.SetMask = c.SetMask.SetBit(b, 1)
			c.SetVal = c.SetVal.SetBit(b, uint(next()&1))
		}
		d.InjectCorruption(idx, c)
		ts := make([]float64, next()%24)
		for i := range ts {
			ts[i] = float64(next()) * 4e-4
		}

		for _, e := range []int64{idx, idx + 1} {
			out := make([][hbm2.EntryBytes]byte, len(ts))
			st.corrects = 0
			d.ReadSeries(e, ts, out)
			if stage && st.corrects != len(ts) {
				t.Fatalf("entry %d: %d Correct calls for %d reads", e, st.corrects, len(ts))
			}
			for i, tr := range ts {
				if want := readData(d, e, tr); out[i] != want {
					t.Fatalf("entry %d, read %d at t=%g: series %x, ReadWire %x", e, i, tr, out[i], want)
				}
			}
		}
	})
}

func TestParityCellLeaksAgainstWrittenParity(t *testing.T) {
	// The hidden parity cells store the parity of the entry as written,
	// not of its corrupted image: countingStage's parity is wire byte
	// 9 (data byte 8), all ones here. Corrupting that byte leaves the
	// stored parity bit 0 at 1, so a leaked 1->0 parity cell 0 is an
	// error, which countingStage XORs into wire bit 0.
	d := New(hbm2.V100(), DefaultRefreshPeriod)
	d.SetOnDie(&countingStage{})
	d.WriteAll(patConst(0xFF), 0)
	d.InjectCorruption(6, Corruption{Xor: bitvec.V288{}.FlipBit(72)})
	d.AddWeakCell(6, WeakCell{Bit: bitvec.EntryBits, Retention: 0.001, LeakTo: 0})
	got := readData(d, 6, 1.0)
	if got[0] != 0xFE || got[8] != 0xFE {
		t.Fatalf("bytes 0 and 8 read %#x and %#x, want 0xfe and 0xfe", got[0], got[8])
	}
}

// TestPristine checks when the device holds a deviation for an entry,
// through InterestingEntries, and that an entry without one reads its
// clean image.
func TestPristine(t *testing.T) {
	d := New(hbm2.V100(), DefaultRefreshPeriod)
	d.WriteAll(patConst(0x5A), 0)
	want := func(entries ...int64) {
		t.Helper()
		if got := d.InterestingEntries(); !slices.Equal(got, entries) {
			t.Fatalf("InterestingEntries = %v, want %v", got, entries)
		}
	}
	clean := bitvec.FromDataECC(patConst(0x5A)(0), [4]byte{})
	want()
	if d.ReadWire(3, 1) != clean || d.ReadWire(4, 1) != clean {
		t.Fatal("fresh entries must read their clean image")
	}

	// Soft-error corruption clears with the entry's rewrite.
	d.InjectCorruption(3, Corruption{Xor: bitvec.V288{}.FlipBit(9)})
	want(3)
	if d.ReadWire(3, 1) == clean || d.ReadWire(4, 1) != clean {
		t.Fatal("corruption must change only its own entry's read")
	}
	d.RewriteEntry(3, 1)
	want()
	if d.ReadWire(3, 1) != clean {
		t.Fatal("RewriteEntry after corruption alone must restore the clean read")
	}

	// A weak cell is physical damage: no write repairs it, however
	// long its retention. Retirement maps the cells out.
	d.AddWeakCell(3, WeakCell{Bit: 5, Retention: 1, LeakTo: 0})
	d.RewriteEntry(3, 2)
	d.WriteAll(patConst(0x5A), 3)
	want(3)
	d.InjectCorruption(3, Corruption{Xor: bitvec.V288{}.FlipBit(9)})
	if d.RetireEntries([]int64{3}) != 1 {
		t.Fatal("RetireEntries must repair the weak cell")
	}
	want()
	if d.ReadWire(3, 4) != clean {
		t.Fatal("RetireEntries must restore the clean read")
	}

	// An on-die stage stands between every entry's cells and the wire.
	st := &countingStage{}
	d.SetOnDie(st)
	for _, idx := range []int64{0, 3, 4, 1 << 29} {
		d.ReadWire(idx, 5)
	}
	if st.corrects != 4 {
		t.Fatalf("stage corrected %d of 4 reads", st.corrects)
	}
	d.SetOnDie(nil)
	d.ReadWire(4, 5)
	if st.corrects != 4 {
		t.Fatal("a removed stage must not see reads")
	}
}
