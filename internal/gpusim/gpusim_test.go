package gpusim

import (
	"math/rand"
	"testing"

	"hbm2ecc/internal/bitvec"
	"hbm2ecc/internal/core"
	"hbm2ecc/internal/dram"
	"hbm2ecc/internal/ecc"
	"hbm2ecc/internal/hbm2"
)

func pat(idx int64) [hbm2.EntryBytes]byte {
	var d [hbm2.EntryBytes]byte
	for i := range d {
		d[i] = byte(idx) + byte(i)
	}
	return d
}

func TestECCDisabledReadsRaw(t *testing.T) {
	g := New(hbm2.V100(), nil)
	g.WritePattern(pat)
	g.Advance(1)
	r := g.Read(7)
	if r.Data != pat(7) || r.Status != ecc.OK {
		t.Fatalf("raw read: %+v", r.Status)
	}
	var c dram.Corruption
	c.Xor = c.Xor.FlipBit(0)
	g.Dev.InjectCorruption(7, c)
	r = g.Read(7)
	if r.Status != ecc.OK || r.Data == pat(7) {
		t.Fatal("ECC-disabled read must return corrupted data silently")
	}
}

func TestECCEnabledCorrectsAndDetects(t *testing.T) {
	for _, scheme := range []core.Scheme{core.NewDuetECC(), core.NewTrioECC(), core.NewSSCDSDPlus()} {
		g := New(hbm2.V100(), scheme)
		g.WritePattern(pat)
		g.Advance(1)

		if r := g.Read(3); r.Status != ecc.OK || r.Data != pat(3) {
			t.Fatalf("%s: clean read %+v", scheme.Name(), r.Status)
		}
		// Single-bit error: corrected by every scheme.
		var c dram.Corruption
		c.Xor = c.Xor.FlipBit(100)
		g.Dev.InjectCorruption(3, c)
		r := g.Read(3)
		if r.Status != ecc.Corrected || r.Data != pat(3) {
			t.Fatalf("%s: single-bit read %+v", scheme.Name(), r.Status)
		}
	}
}

func TestECCEnabledDUECounting(t *testing.T) {
	g := New(hbm2.V100(), core.NewDuetECC())
	g.WritePattern(pat)
	// Whole-byte error: DuetECC detects.
	var c dram.Corruption
	base := bitvec.ByteBase(5)
	for k := 0; k < 8; k++ {
		c.Xor = c.Xor.FlipBit(base + k)
	}
	g.Dev.InjectCorruption(9, c)
	if r := g.Read(9); r.Status != ecc.Detected {
		t.Fatalf("byte error status %v", r.Status)
	}
}

func TestECCEnabledWeakCellsCorrected(t *testing.T) {
	// §4's practical takeaway: single-bit intermittent errors are fully
	// correctable, so beam campaigns with ECC on need not model them.
	g := New(hbm2.V100(), core.NewTrioECC())
	g.Dev.RefreshPeriod = 0.048
	g.Dev.AddWeakCell(11, dram.WeakCell{Bit: 5, Retention: 0.002, LeakTo: 0})
	g.WritePattern(func(int64) [hbm2.EntryBytes]byte {
		var d [hbm2.EntryBytes]byte
		for i := range d {
			d[i] = 0xFF
		}
		return d
	})
	g.Advance(1)
	r := g.Read(11)
	if r.Data[0] != 0xFF {
		t.Fatalf("weak cell not corrected: %#x (status %v)", r.Data[0], r.Status)
	}
}

func TestWriteEntryClearsCorruptionAndCounts(t *testing.T) {
	g := New(hbm2.V100(), core.NewDuetECC())
	g.WritePattern(pat)
	g.Advance(1)

	var c dram.Corruption
	c.Xor = c.Xor.FlipBit(0).FlipBit(80).FlipBit(150)
	g.Dev.InjectCorruption(5, c)
	if r := g.Read(5); r.Status != ecc.Detected {
		t.Fatalf("multi-bit corruption not detected: %v", r.Status)
	}
	g.WriteEntry(5)
	if r := g.Read(5); r.Status != ecc.OK || r.Data != pat(5) {
		t.Fatalf("read after WriteEntry: %v", r.Status)
	}
}

// stuckStage is a fake on-die stage whose output path forces wire bit 7
// to 1, so its reads deviate even on entries with no faulty cells. Its
// 8 parity cells are a byte of the clean image, and their errors XOR
// into the top data byte.
type stuckStage struct{}

func (stuckStage) ParityBits() int                 { return 8 }
func (stuckStage) Parity(clean bitvec.V288) uint64 { return clean[0] >> 16 & 0xFF }

func (stuckStage) Correct(_, raw bitvec.V288, parityErr uint64) bitvec.V288 {
	for p := 0; p < 8; p++ {
		if parityErr>>uint(p)&1 != 0 {
			raw = raw.FlipBit(bitvec.ByteBase(31) + p)
		}
	}
	return raw.SetBit(7, 1)
}

// FuzzReadVsDecode checks Read, whose pristine entries skip the device
// read and the decode, against the full path: decoding the device's
// wire image (or, with ECC off, its raw data with status OK). A fuzzed
// op sequence over a few entries injects corruption, rewrites entries
// and the whole pattern, advances the clock and adds weak cells that
// the refresh period exposes; every entry is compared after every op.
func FuzzReadVsDecode(f *testing.F) {
	names := core.SchemeNames()
	schemes := make([]core.Scheme, len(names)+1) // the last is ECC off
	for i, n := range names {
		s, err := core.SchemeByName(n)
		if err != nil {
			f.Fatal(err)
		}
		schemes[i] = s
	}
	f.Add(uint8(0), int64(1), false, []byte{})
	f.Add(uint8(3), int64(2), false, []byte{0, 1, 0, 40, 4, 9, 1, 2, 3, 7, 5, 6, 1, 2, 30, 1, 2, 5, 2})
	f.Add(uint8(1), int64(6), false, []byte{2, 5, 0, 10, 5, 0, 2, 5, 0, 20, 5, 1, 2, 5, 0, 30, 5, 0, 2, 5, 0, 40, 5, 1, 0, 4, 200})
	f.Add(uint8(7), int64(3), true, []byte{5, 3, 1, 32, 1, 4, 200, 0, 4, 5, 1, 0, 9, 3, 4, 99})
	f.Add(uint8(len(names)), int64(4), false, []byte{1, 6, 0, 77, 1, 1, 1, 4, 3, 5, 2, 1, 20, 0, 4, 100, 3})
	f.Add(uint8(len(names)), int64(5), true, []byte{4, 10, 2, 7})
	f.Fuzz(func(t *testing.T, scheme uint8, seed int64, stage bool, ops []byte) {
		const entries = 8
		if len(ops) > 64 {
			ops = ops[:64] // keeps an exec, and so minimization, short
		}
		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return int(b)
		}
		s := schemes[int(scheme)%len(schemes)]
		name := "ECC off"
		if s != nil {
			name = s.Name()
		}
		g := New(hbm2.V100(), s)
		cells := bitvec.EntryBits
		if stage {
			g.Dev.SetOnDie(stuckStage{})
			cells += stuckStage{}.ParityBits()
		}
		rng := rand.New(rand.NewSource(seed))
		var store [entries][hbm2.EntryBytes]byte
		pattern := func(idx int64) [hbm2.EntryBytes]byte {
			if idx >= 0 && idx < entries {
				return store[idx]
			}
			return [hbm2.EntryBytes]byte{}
		}
		writeAll := func() {
			for i := range store {
				rng.Read(store[i][:])
			}
			g.WritePattern(pattern)
		}
		check := func(op int) {
			for idx := int64(0); idx < entries; idx++ {
				wire := g.Dev.ReadWire(idx, g.Clock())
				want := ReadResult{Status: ecc.OK}
				if s == nil {
					want.Data, _ = wire.DataECC()
				} else {
					res := s.Decode(wire)
					want = ReadResult{Data: res.Data, Status: res.Status}
				}
				if got := g.Read(idx); got != want {
					t.Fatalf("%s, op %d, entry %d: Read = %v %x, decode = %v %x",
						name, op, idx, got.Status, got.Data, want.Status, want.Data)
				}
			}
		}
		writeAll()
		check(-1)
		for op := 0; len(ops) > 0; op++ {
			idx := int64(next() % entries)
			switch next() % 6 {
			case 0:
				var c dram.Corruption
				for n := 1 + next()%3; n > 0; n-- {
					c.Xor = c.Xor.FlipBit((next()<<8 | next()) % bitvec.EntryBits)
				}
				g.Dev.InjectCorruption(idx, c)
			case 1:
				var c dram.Corruption
				for n := 1 + next()%3; n > 0; n-- {
					b := (next()<<8 | next()) % bitvec.EntryBits
					c.SetMask = c.SetMask.SetBit(b, 1)
					c.SetVal = c.SetVal.SetBit(b, uint(next()&1))
				}
				g.Dev.InjectCorruption(idx, c)
			case 2:
				rng.Read(store[idx][:])
				g.WriteEntry(idx)
			case 3:
				writeAll()
			case 4:
				g.Advance(float64(next()) * 1e-4)
			case 5:
				g.Dev.AddWeakCell(idx, dram.WeakCell{
					Bit:       (next()<<8 | next()) % cells,
					Retention: float64(next()%160) * 1e-4, // below the 16 ms refresh
					LeakTo:    uint(next() & 1),
				})
			}
			check(op)
		}
	})
}
