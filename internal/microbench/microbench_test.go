package microbench

import (
	"slices"
	"testing"

	"hbm2ecc/internal/anenc"
	"hbm2ecc/internal/beam"
	"hbm2ecc/internal/bitvec"
	"hbm2ecc/internal/dram"
	"hbm2ecc/internal/hbm2"
)

func TestPatternData(t *testing.T) {
	if PatternData(AllZero, 0, false) != ([hbm2.EntryBytes]byte{}) {
		t.Fatal("All0 not zero")
	}
	inv := PatternData(AllZero, 0, true)
	for _, b := range inv {
		if b != 0xFF {
			t.Fatal("All0 inverse not ones")
		}
	}
	cb := PatternData(Checkerboard, 0, false)
	if cb[0] != 0x55 || PatternData(Checkerboard, 0, true)[0] != 0xAA {
		t.Fatal("checkerboard wrong")
	}
	an := PatternData(ANEncoded, 3, false)
	for w := 0; w < 4; w++ {
		var v uint64
		for k := 0; k < 8; k++ {
			v |= uint64(an[w*8+k]) << uint(8*k)
		}
		idx, ok := anenc.Decode(v)
		if !ok || idx != uint64(3*4+w) {
			t.Fatalf("AN word %d decodes to %d, %v", w, idx, ok)
		}
	}
}

func TestCleanRunProducesNoRecords(t *testing.T) {
	dev := dram.New(hbm2.V100(), dram.DefaultRefreshPeriod)
	log := Run(Config{Device: dev, Pattern: Checkerboard, Seed: 1, DiscardProb: -1})
	if len(log.Records) != 0 {
		t.Fatalf("clean device logged %d records", len(log.Records))
	}
	if log.Discarded {
		t.Fatal("DiscardProb<0 must never discard")
	}
	if log.EndTime <= log.StartTime {
		t.Fatal("clock did not advance")
	}
}

func TestWeakCellObservedOnlyAtLongRefresh(t *testing.T) {
	dev := dram.New(hbm2.V100(), 0.016)
	dev.AddWeakCell(77, dram.WeakCell{Bit: 3, Retention: 0.030, LeakTo: 0})

	// Retention 30ms > 16ms refresh: invisible.
	log := Run(Config{Device: dev, Pattern: AllZero, Seed: 2, DiscardProb: -1})
	if len(log.Records) != 0 {
		t.Fatalf("weak cell visible below refresh period: %d records", len(log.Records))
	}
	// At 48ms refresh the cell leaks; only inverse (ones) cycles show it.
	dev.RefreshPeriod = 0.048
	log = Run(Config{Device: dev, Pattern: AllZero, Seed: 3, DiscardProb: -1, StartTime: 100})
	if len(log.Records) == 0 {
		t.Fatal("weak cell invisible at long refresh period")
	}
	for _, r := range log.Records {
		if r.Entry != 77 {
			t.Fatalf("record for wrong entry %d", r.Entry)
		}
		if r.WritePass%2 != 1 {
			t.Fatalf("1->0 leak observed on non-inverse pass %d", r.WritePass)
		}
		if r.Expected[0]&0x08 == 0 || r.Got[0]&0x08 != 0 {
			t.Fatal("leak direction wrong")
		}
	}
}

func TestInjectedCorruptionPersistsUntilWrite(t *testing.T) {
	dev := dram.New(hbm2.V100(), dram.DefaultRefreshPeriod)
	b := beam.New(dev, beam.Config{
		Seed: 5,
		// Extremely hot beam: guarantee events in a short run.
		SEURatePerFlux: 1 / (0.3 * beam.ChipIRFlux),
	})
	log := Run(Config{Device: dev, Beam: b, Pattern: Checkerboard, Seed: 5, DiscardProb: -1})
	if len(log.Records) == 0 {
		t.Fatal("hot beam produced no records")
	}
	// Each record's Got must differ from Expected (by construction) and
	// every record's write pass must see the soft error only until the
	// following write pass unless re-injected: verify per (entry,
	// writePass) that read passes are contiguous to the end of the pass.
	type key struct {
		entry int64
		wp    int
	}
	reads := map[key][]int{}
	for _, r := range log.Records {
		if r.Expected == r.Got {
			t.Fatal("record with no mismatch")
		}
		reads[key{r.Entry, r.WritePass}] = append(reads[key{r.Entry, r.WritePass}], r.ReadPass)
	}
	for k, rs := range reads {
		last := -1
		for _, r := range rs {
			if r <= last {
				t.Fatalf("unsorted/duplicate reads for %v", k)
			}
			last = r
		}
		if last != 19 {
			t.Fatalf("%v: corruption vanished before the write pass ended (last read %d)", k, last)
		}
	}
}

func TestUtilizationLimitsObservation(t *testing.T) {
	dev := dram.New(hbm2.V100(), 0.048)
	limit := int64(float64(dev.Cfg.Entries()) * 0.25)
	dev.AddWeakCell(limit-1, dram.WeakCell{Bit: 0, Retention: 0.001, LeakTo: 0})
	dev.AddWeakCell(limit+1, dram.WeakCell{Bit: 0, Retention: 0.001, LeakTo: 0})
	log := Run(Config{Device: dev, Pattern: AllZero, Utilization: 0.25, Seed: 7, DiscardProb: -1})
	for _, r := range log.Records {
		if r.Entry >= limit {
			t.Fatalf("observed entry %d beyond utilization limit %d", r.Entry, limit)
		}
	}
	seen := false
	for _, r := range log.Records {
		if r.Entry == limit-1 {
			seen = true
		}
	}
	if !seen {
		t.Fatal("in-range weak cell not observed")
	}
}

func TestRecordsTimeOrdered(t *testing.T) {
	dev := dram.New(hbm2.V100(), 0.048)
	for i := int64(0); i < 20; i++ {
		dev.AddWeakCell(i*1000, dram.WeakCell{Bit: int(i % 8), Retention: 0.001, LeakTo: 0})
	}
	log := Run(Config{Device: dev, Pattern: AllZero, Seed: 8, DiscardProb: -1})
	for i := 1; i < len(log.Records); i++ {
		if log.Records[i].Time < log.Records[i-1].Time {
			t.Fatal("records not time-ordered")
		}
	}
	if len(log.Records) == 0 {
		t.Fatal("expected records")
	}
}

func TestDiscardProbability(t *testing.T) {
	dev := dram.New(hbm2.V100(), dram.DefaultRefreshPeriod)
	discarded := 0
	n := 3000
	for i := 0; i < n; i++ {
		log := Run(Config{Device: dev, Pattern: AllZero, Seed: int64(i), WritePasses: 1, ReadsPerWrite: 1})
		if log.Discarded {
			discarded++
		}
	}
	frac := float64(discarded) / float64(n)
	if frac < 0.002 || frac > 0.015 {
		t.Fatalf("discard fraction %.4f, want ~0.006", frac)
	}
}

func TestErrMaskRoundTrip(t *testing.T) {
	// A corrupted bit at a known wire position shows up in the record.
	dev := dram.New(hbm2.V100(), dram.DefaultRefreshPeriod)
	var c dram.Corruption
	c.Xor = c.Xor.FlipBit(bitvec.ByteBase(0))
	t0 := 0.0
	dev.WriteAll(func(int64) [hbm2.EntryBytes]byte { return [hbm2.EntryBytes]byte{} }, t0)
	dev.InjectCorruption(5, c)
	got, _ := dev.ReadWire(5, 1).DataECC()
	if got[0] != 1 {
		t.Fatalf("corruption not visible: %v", got[0])
	}
}

// passThrough is an on-die stage without parity cells that returns the
// raw image unchanged and counts its Correct calls.
type passThrough struct{ corrects int }

func (p *passThrough) ParityBits() int           { return 0 }
func (p *passThrough) Parity(bitvec.V288) uint64 { return 0 }
func (p *passThrough) Correct(_, raw bitvec.V288, _ uint64) bitvec.V288 {
	p.corrects++
	return raw
}

func TestOneCorrectPerRead(t *testing.T) {
	// A weak cell with retention 0 has leaked before every read, so its
	// entry is read at every read pass of every write pass. Under All0 it
	// leaks a stored 1 only on the inverse (all-ones) passes 1 and 3.
	const writes, reads = 4, 5
	run := func(stage dram.OnDieStage) *Log {
		dev := dram.New(hbm2.V100(), dram.DefaultRefreshPeriod)
		dev.SetOnDie(stage)
		dev.AddWeakCell(321, dram.WeakCell{Bit: 6, Retention: 0, LeakTo: 0})
		return Run(Config{Device: dev, Pattern: AllZero, WritePasses: writes, ReadsPerWrite: reads,
			Seed: 4, DiscardProb: -1})
	}
	p := &passThrough{}
	staged, plain := run(p), run(nil)
	if p.corrects != writes*reads {
		t.Fatalf("stage corrected %d reads, want %d", p.corrects, writes*reads)
	}
	if len(plain.Records) != 2*reads {
		t.Fatalf("%d records, want %d", len(plain.Records), 2*reads)
	}
	if !slices.Equal(staged.Records, plain.Records) {
		t.Fatal("records through a pass-through stage differ from the stage-less run")
	}
	for _, r := range plain.Records {
		if r.Entry != 321 || r.WritePass%2 != 1 || r.Got[0] != 0xBF {
			t.Fatalf("unexpected record %+v", r)
		}
	}
}
