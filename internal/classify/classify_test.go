package classify

import (
	"math/rand"
	"testing"

	"hbm2ecc/internal/bitvec"
	"hbm2ecc/internal/errormodel"
	"hbm2ecc/internal/hbm2"
	"hbm2ecc/internal/microbench"
)

// mkRecord fabricates a mismatch record with the error in data byte
// dataByte, bits pat, at the given time/passes.
func mkRecord(t float64, wp, rp int, entry int64, dataByte int, pat byte) microbench.Record {
	var exp, got [hbm2.EntryBytes]byte
	got[dataByte] = pat
	return microbench.Record{Time: t, WritePass: wp, ReadPass: rp, Entry: entry, Expected: exp, Got: got}
}

func logOf(recs ...microbench.Record) *microbench.Log {
	return &microbench.Log{Records: recs}
}

func TestSingleEventSBSE(t *testing.T) {
	an := Analyze([]*microbench.Log{logOf(
		mkRecord(1.0, 0, 3, 42, 5, 0x01),
		mkRecord(1.05, 0, 4, 42, 5, 0x01), // same entry, next read
	)}, Options{})
	if len(an.Events) != 1 {
		t.Fatalf("%d events", len(an.Events))
	}
	ev := an.Events[0]
	if ev.Class != SBSE || ev.Breadth() != 1 || ev.Pattern != errormodel.Bit1 {
		t.Fatalf("event: %+v", ev)
	}
}

func TestClusteringSeparatesDistantEvents(t *testing.T) {
	an := Analyze([]*microbench.Log{logOf(
		mkRecord(1.0, 0, 0, 1, 0, 0x01),
		mkRecord(9.0, 0, 19, 2, 0, 0x01),
	)}, Options{})
	if len(an.Events) != 2 {
		t.Fatalf("%d events, want 2", len(an.Events))
	}
}

func TestClusteringMergesCloseOnsets(t *testing.T) {
	// A broad event: many entries first observed within one read pass.
	recs := []microbench.Record{}
	for i := 0; i < 10; i++ {
		recs = append(recs, mkRecord(1.0+float64(i)*0.005, 0, 3, int64(i), 2, 0xFF))
	}
	an := Analyze([]*microbench.Log{logOf(recs...)}, Options{})
	if len(an.Events) != 1 {
		t.Fatalf("%d events, want 1", len(an.Events))
	}
	ev := an.Events[0]
	if ev.Class != MBME || ev.Breadth() != 10 {
		t.Fatalf("event: class=%v breadth=%d", ev.Class, ev.Breadth())
	}
	if !ev.ByteAligned || ev.Pattern != errormodel.Byte1 {
		t.Fatalf("event alignment: %+v", ev)
	}
}

func TestIntermittentFiltering(t *testing.T) {
	// Same entry erroring in two different write passes = damaged.
	var exp, got [hbm2.EntryBytes]byte
	exp[0] = 0xFF
	got[0] = 0xFE // a 1->0 flip
	r1 := microbench.Record{Time: 1, WritePass: 1, Entry: 7, Expected: exp, Got: got}
	r2 := microbench.Record{Time: 30, WritePass: 3, Entry: 7, Expected: exp, Got: got}
	// Plus an unrelated clean soft error.
	soft := mkRecord(60, 5, 0, 9, 1, 0x03)

	an := Analyze([]*microbench.Log{logOf(r1, r2, soft)}, Options{})
	if !an.DamagedEntries[7] {
		t.Fatal("entry 7 not classified damaged")
	}
	if an.IntermittentRecords != 2 {
		t.Fatalf("IntermittentRecords = %d", an.IntermittentRecords)
	}
	if an.IntermittentDirection.OneToZero != 2 || an.IntermittentDirection.ZeroToOne != 0 {
		t.Fatalf("direction: %+v", an.IntermittentDirection)
	}
	if len(an.Events) != 1 || an.Events[0].Entries[0].Entry != 9 {
		t.Fatalf("soft event not preserved: %+v", an.Events)
	}
}

func TestDiscardedRunsExcluded(t *testing.T) {
	bad := logOf(mkRecord(1, 0, 0, 1, 0, 0x01))
	bad.Discarded = true
	an := Analyze([]*microbench.Log{bad}, Options{})
	if len(an.Events) != 0 || an.DiscardedRuns != 1 || an.TotalRuns != 1 {
		t.Fatalf("discarded run leaked: %+v", an)
	}
}

func TestByteAlignedDetection(t *testing.T) {
	// Error spanning two bytes of one word: not byte-aligned.
	var exp, got [hbm2.EntryBytes]byte
	got[0] = 0x81
	got[1] = 0x01
	rec := microbench.Record{Time: 1, WritePass: 0, Entry: 3, Expected: exp, Got: got}
	an := Analyze([]*microbench.Log{logOf(rec)}, Options{})
	ev := an.Events[0]
	if ev.ByteAligned {
		t.Fatal("cross-byte error reported byte-aligned")
	}
	if ev.Class != MBSE {
		t.Fatalf("class = %v", ev.Class)
	}

	// Errors in different words, each confined to a byte: byte-aligned.
	got = [hbm2.EntryBytes]byte{}
	got[0] = 0x81  // word 0, byte 0
	got[15] = 0x18 // word 1, byte 7
	rec = microbench.Record{Time: 1, WritePass: 0, Entry: 3, Expected: exp, Got: got}
	an = Analyze([]*microbench.Log{logOf(rec)}, Options{})
	if !an.Events[0].ByteAligned {
		t.Fatal("per-word byte-confined error not byte-aligned")
	}
}

// maskByteAlignedRef is the original Bits()-loop definition of
// maskByteAligned, kept as its differential-testing baseline.
func maskByteAlignedRef(m bitvec.V288) bool {
	for w := 0; w < bitvec.Beats; w++ {
		beat := m.Beat(w)
		if beat.IsZero() {
			continue
		}
		bits := beat.Bits()
		b0 := bits[0] / 8
		for _, b := range bits[1:] {
			if b/8 != b0 {
				return false
			}
		}
	}
	return true
}

// TestMaskByteAlignedVsBitLoop checks every 1- and 2-bit beat mask in
// every beat, then random entries whose beats mix those masks with dense
// beats and random patterns confined to one aligned byte (check byte
// included), against the bit loop.
func TestMaskByteAlignedVsBitLoop(t *testing.T) {
	var masks []bitvec.V72
	for i := 0; i < bitvec.BeatBits; i++ {
		one := bitvec.V72{}.FlipBit(i)
		masks = append(masks, one)
		for j := i + 1; j < bitvec.BeatBits; j++ {
			masks = append(masks, one.FlipBit(j))
		}
	}
	check := func(e bitvec.V288) {
		t.Helper()
		if got, want := maskByteAligned(e), maskByteAlignedRef(e); got != want {
			t.Fatalf("maskByteAligned(%v) = %v, bit loop %v", e, got, want)
		}
	}
	for _, m := range masks {
		for w := 0; w < bitvec.Beats; w++ {
			check(bitvec.V288{}.SetBeat(w, m))
		}
	}

	rng := rand.New(rand.NewSource(1))
	randomBeat := func() bitvec.V72 {
		switch rng.Intn(4) {
		case 0:
			return bitvec.V72{}
		case 1:
			return masks[rng.Intn(len(masks))]
		case 2:
			return bitvec.V72FromUint64(rng.Uint64(), rng.Uint64())
		default:
			pat := uint64(rng.Intn(256))
			if b := rng.Intn(bitvec.BytesPer72); b < 8 {
				return bitvec.V72FromUint64(pat<<(8*b), 0)
			}
			return bitvec.V72FromUint64(0, pat)
		}
	}
	for k := 0; k < 20000; k++ {
		check(bitvec.FromBeats(randomBeat(), randomBeat(), randomBeat(), randomBeat()))
	}
}

func TestAggregations(t *testing.T) {
	logs := []*microbench.Log{logOf(
		mkRecord(1, 0, 0, 1, 0, 0x01),                                     // SBSE
		mkRecord(10, 0, 5, 2, 3, 0xFF),                                    // MBSE byte inversion
		mkRecord(20, 1, 0, 3, 2, 0x55), mkRecord(20.01, 1, 0, 4, 2, 0x55), // MBME byte-aligned
	)}
	an := Analyze(logs, Options{})
	cb := an.ClassBreakdown()
	if cb[SBSE].K != 1 || cb[MBSE].K != 1 || cb[MBME].K != 1 {
		t.Fatalf("breakdown: %+v", cb)
	}
	if f := an.ByteAlignedFraction(); f.K != 2 || f.N != 2 {
		t.Fatalf("byte-aligned fraction: %+v", f)
	}
	bins, max := an.MBMEBreadth()
	if max != 2 || bins.Counts[1] != 1 { // breadth 2 in bin [2,4)
		t.Fatalf("breadth: max=%d counts=%v", max, bins.Counts)
	}
	hist, inv, total := an.SeverityHistogram(true)
	if total != 3 || hist[8] != 1 || inv != 1 {
		t.Fatalf("severity: hist=%v inv=%d total=%d", hist, inv, total)
	}
	words := an.WordsPerEntry(true)
	if words[0] != 3 {
		t.Fatalf("words per entry: %v", words)
	}
	tab := an.Table1()
	if tab[errormodel.Bit1].K != 1 || tab[errormodel.Byte1].K != 2 {
		t.Fatalf("table1: %+v", tab)
	}
	if mb := an.MultiBitFraction(); mb.K != 2 || mb.N != 3 {
		t.Fatalf("multibit: %+v", mb)
	}
}
