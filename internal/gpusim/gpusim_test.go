package gpusim

import (
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
