package errormodel

import (
	"math"
	"testing"

	"hbm2ecc/internal/bitvec"
)

func TestTable1SumsToOne(t *testing.T) {
	sum := 0.0
	for _, p := range Table1 {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("Table 1 probabilities sum to %v", sum)
	}
}

func TestClassifyPriority(t *testing.T) {
	// Single bit.
	if got := Classify(bitvec.V288{}.FlipBit(5)); got != Bit1 {
		t.Fatalf("single bit -> %v", got)
	}
	// Two bits on one pin: Pin1, not Bits2.
	pb := bitvec.PinBits(9)
	if got := Classify(bitvec.V288{}.FlipBit(pb[0]).FlipBit(pb[2])); got != Pin1 {
		t.Fatalf("pin pair -> %v", got)
	}
	// Two bits in one byte: Byte1, not Bits2.
	base := bitvec.ByteBase(3)
	if got := Classify(bitvec.V288{}.FlipBit(base).FlipBit(base + 5)); got != Byte1 {
		t.Fatalf("byte pair -> %v", got)
	}
	// Two spread bits.
	if got := Classify(bitvec.V288{}.FlipBit(0).FlipBit(100)); got != Bits2 {
		t.Fatalf("spread pair -> %v", got)
	}
	// Three spread bits.
	if got := Classify(bitvec.V288{}.FlipBit(0).FlipBit(100).FlipBit(200)); got != Bits3 {
		t.Fatalf("spread triple -> %v", got)
	}
	// Five bits within one beat (not one byte).
	e := bitvec.V288{}.FlipBit(0).FlipBit(9).FlipBit(20).FlipBit(40).FlipBit(65)
	if got := Classify(e); got != Beat1 {
		t.Fatalf("beat-local -> %v", got)
	}
	// Bits spanning beats.
	e = e.FlipBit(80)
	if got := Classify(e); got != Entry1 {
		t.Fatalf("entry-wide -> %v", got)
	}
}

func TestClassifyPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Classify(zero) must panic")
		}
	}()
	Classify(bitvec.V288{})
}

func TestEnumerateCountsMatch(t *testing.T) {
	for _, p := range []Pattern{Bit1, Pin1, Byte1, Bits2} {
		want := EnumerableCount(p)
		got := 0
		seen := map[bitvec.V288]bool{}
		Enumerate(p, func(e bitvec.V288) {
			got++
			if seen[e] {
				t.Fatalf("%v: duplicate pattern", p)
			}
			seen[e] = true
			if Classify(e) != p {
				t.Fatalf("%v: enumerated pattern classifies as %v", p, Classify(e))
			}
		})
		if got != want {
			t.Fatalf("%v: enumerated %d patterns, want %d", p, got, want)
		}
	}
}

func TestEnumerableCountSampledClasses(t *testing.T) {
	for _, p := range []Pattern{Bits3, Beat1, Entry1} {
		if EnumerableCount(p) != -1 {
			t.Fatalf("%v must report -1", p)
		}
	}
}

func TestEnumeratePanicsOnSampled(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Enumerate(Beat1) must panic")
		}
	}()
	Enumerate(Beat1, func(bitvec.V288) {})
}

func TestSamplesClassifyCorrectly(t *testing.T) {
	s := NewSampler(1)
	for p := Bit1; p < NumPatterns; p++ {
		for trial := 0; trial < 2000; trial++ {
			e := s.Sample(p)
			if Classify(e) != p {
				t.Fatalf("%v sample classifies as %v", p, Classify(e))
			}
		}
	}
}

var (
	sinkPattern Pattern
	sinkError   bitvec.V288
)

// TestClassifyAndSampleAllocateNothing locks the per-trial path at zero
// heap allocations: every Monte-Carlo draw runs Classify, inside Sample's
// rejection loop.
func TestClassifyAndSampleAllocateNothing(t *testing.T) {
	pb := bitvec.PinBits(9)
	base := bitvec.ByteBase(3)
	examples := [NumPatterns]bitvec.V288{
		Bit1:   bitvec.V288{}.FlipBit(5),
		Pin1:   bitvec.V288{}.FlipBit(pb[0]).FlipBit(pb[2]),
		Byte1:  bitvec.V288{}.FlipBit(base).FlipBit(base + 5),
		Bits2:  bitvec.V288{}.FlipBit(0).FlipBit(100),
		Bits3:  bitvec.V288{}.FlipBit(0).FlipBit(100).FlipBit(200),
		Beat1:  bitvec.V288{}.FlipBit(0).FlipBit(9).FlipBit(20).FlipBit(40).FlipBit(65),
		Entry1: bitvec.V288{}.FlipBit(0).FlipBit(9).FlipBit(20).FlipBit(40).FlipBit(80),
	}
	for p, e := range examples {
		if got := Classify(e); got != Pattern(p) {
			t.Fatalf("example for %v classifies as %v", Pattern(p), got)
		}
		if n := testing.AllocsPerRun(100, func() { sinkPattern = Classify(e) }); n != 0 {
			t.Errorf("Classify(%v example) allocates %v times per call", Pattern(p), n)
		}
	}
	s := NewSampler(4)
	for p := Bit1; p < NumPatterns; p++ {
		if n := testing.AllocsPerRun(100, func() { sinkError = s.Sample(p) }); n != 0 {
			t.Errorf("Sample(%v) allocates %v times per call", p, n)
		}
	}
}

func TestBeatSampleStaysInOneBeat(t *testing.T) {
	s := NewSampler(2)
	for trial := 0; trial < 3000; trial++ {
		e := s.Sample(Beat1)
		if !e.SameBeat() {
			t.Fatal("beat sample spans beats")
		}
		if n := e.OnesCount(); n < 4 {
			t.Fatalf("beat sample with %d bits should have been rejected", n)
		}
	}
}

func TestSampleEventMixture(t *testing.T) {
	s := NewSampler(3)
	var counts [NumPatterns]int
	n := 100000
	for i := 0; i < n; i++ {
		p, e := s.SampleEvent()
		if Classify(e) != p {
			t.Fatal("event pattern mismatch")
		}
		counts[p]++
	}
	for p := Bit1; p < NumPatterns; p++ {
		got := float64(counts[p]) / float64(n)
		want := Table1[p]
		tol := 4*math.Sqrt(want*(1-want)/float64(n)) + 1e-4
		if math.Abs(got-want) > tol {
			t.Fatalf("%v: frequency %.5f, want %.5f ± %.5f", p, got, want, tol)
		}
	}
}

func TestPatternString(t *testing.T) {
	names := map[Pattern]string{
		Bit1: "1 Bit", Pin1: "1 Pin", Byte1: "1 Byte",
		Bits2: "2 Bits", Bits3: "3 Bits", Beat1: "1 Beat", Entry1: "1 Entry",
	}
	for p, want := range names {
		if p.String() != want {
			t.Fatalf("%d.String() = %q, want %q", p, p.String(), want)
		}
	}
}
