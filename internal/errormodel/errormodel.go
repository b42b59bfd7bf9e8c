// Package errormodel implements the paper's analytical soft-error model
// for ECC evaluation (§5, Table 1): seven error patterns — random bit,
// pin, byte, 2-bit, 3-bit, whole-beat and whole-entry errors — with
// probabilities drawn from the beam-testing data, under the paper's
// uniform-random-corruption assumption.
//
// Patterns are ordered by increasing ECC difficulty, and classification
// gives priority to less-difficult patterns whenever several fit (a "2
// bits" error is one whose 2 erroneous bits are NOT in the same byte or
// pin). Pattern generators honor the same priority by rejection: a
// whole-beat sample that happens to fit inside one byte is resampled,
// because such an event would have been classified as a byte error.
package errormodel

import (
	"fmt"
	"math/bits"
	"math/rand"

	"hbm2ecc/internal/bitvec"
)

// Pattern is one of the seven Table-1 error patterns.
type Pattern int

const (
	Bit1   Pattern = iota // 1 erroneous bit
	Pin1                  // 2-4 bits, all on one pin
	Byte1                 // 2-8 bits, all in one aligned byte
	Bits2                 // 2 bits, not same byte/pin
	Bits3                 // 3 bits, not same byte/pin
	Beat1                 // 4-72 bits confined to one beat
	Entry1                // anything broader, up to the whole entry
	NumPatterns
)

func (p Pattern) String() string {
	switch p {
	case Bit1:
		return "1 Bit"
	case Pin1:
		return "1 Pin"
	case Byte1:
		return "1 Byte"
	case Bits2:
		return "2 Bits"
	case Bits3:
		return "3 Bits"
	case Beat1:
		return "1 Beat"
	case Entry1:
		return "1 Entry"
	default:
		return fmt.Sprintf("Pattern(%d)", int(p))
	}
}

// Table1 holds the paper's measured pattern probabilities (Table 1).
var Table1 = [NumPatterns]float64{
	Bit1:   0.7398,
	Pin1:   0.0019,
	Byte1:  0.2256,
	Bits2:  0.0011,
	Bits3:  0.0003,
	Beat1:  0.0090,
	Entry1: 0.0223,
}

// Classify assigns an error pattern (a nonzero set of flipped wire bits)
// to the least-difficult Table-1 class that fits. It panics on a zero
// vector.
func Classify(e bitvec.V288) Pattern {
	n := e.OnesCount()
	switch {
	case n == 0:
		panic("errormodel: classify of zero error")
	case n == 1:
		return Bit1
	case e.SamePin():
		return Pin1
	case e.SameByte():
		return Byte1
	case n == 2:
		return Bits2
	case n == 3:
		return Bits3
	case e.SameBeat():
		return Beat1
	default:
		return Entry1
	}
}

// EnumerableCount returns the number of distinct patterns in class p when
// exhaustive enumeration is practical, or -1 for the sampled classes.
func EnumerableCount(p Pattern) int {
	switch p {
	case Bit1:
		return bitvec.EntryBits
	case Pin1:
		return bitvec.Pins * 11 // subsets of 4 beats with >= 2 bits
	case Byte1:
		return bitvec.EntryAlignedBytes * 247 // byte patterns with >= 2 bits
	case Bits2:
		// all pairs minus same-byte pairs minus same-pin pairs
		return 288*287/2 - 36*28 - 72*6
	default:
		return -1
	}
}

// Enumerate calls fn for every pattern in an enumerable class. It panics
// for sampled classes (Bits3, Beat1, Entry1).
func Enumerate(p Pattern, fn func(e bitvec.V288)) {
	switch p {
	case Bit1:
		for i := 0; i < bitvec.EntryBits; i++ {
			fn(bitvec.V288{}.FlipBit(i))
		}
	case Pin1:
		for pin := 0; pin < bitvec.Pins; pin++ {
			pb := bitvec.PinBits(pin)
			for mask := 0; mask < 16; mask++ {
				if bits.OnesCount8(uint8(mask)) < 2 {
					continue
				}
				var e bitvec.V288
				for b := 0; b < 4; b++ {
					if mask>>uint(b)&1 != 0 {
						e = e.FlipBit(pb[b])
					}
				}
				fn(e)
			}
		}
	case Byte1:
		for by := 0; by < bitvec.EntryAlignedBytes; by++ {
			base := bitvec.ByteBase(by)
			for pat := 1; pat < 256; pat++ {
				if bits.OnesCount8(uint8(pat)) < 2 {
					continue
				}
				var e bitvec.V288
				for k := 0; k < 8; k++ {
					if pat>>uint(k)&1 != 0 {
						e = e.FlipBit(base + k)
					}
				}
				fn(e)
			}
		}
	case Bits2:
		for i := 0; i < bitvec.EntryBits; i++ {
			for j := i + 1; j < bitvec.EntryBits; j++ {
				if bitvec.ByteOfBit(i) == bitvec.ByteOfBit(j) ||
					bitvec.PinOfBit(i) == bitvec.PinOfBit(j) {
					continue
				}
				fn(bitvec.V288{}.FlipBit(i).FlipBit(j))
			}
		}
	default:
		panic("errormodel: pattern " + p.String() + " is not enumerable")
	}
}

// Sampler draws random instances of each pattern class.
type Sampler struct {
	rng *rand.Rand
}

// NewSampler builds a deterministic sampler from a seed.
func NewSampler(seed int64) *Sampler {
	return &Sampler{rng: rand.New(rand.NewSource(seed))}
}

// Sample draws one uniformly-random instance of pattern class p,
// resampling any draw that classifies into a less-difficult class.
func (s *Sampler) Sample(p Pattern) bitvec.V288 {
	for {
		e := s.raw(p)
		if !e.IsZero() && Classify(e) == p {
			return e
		}
	}
}

func (s *Sampler) raw(p Pattern) bitvec.V288 {
	var e bitvec.V288
	switch p {
	case Bit1:
		return e.FlipBit(s.rng.Intn(bitvec.EntryBits))
	case Pin1:
		pb := bitvec.PinBits(s.rng.Intn(bitvec.Pins))
		mask := s.rng.Intn(16)
		for b := 0; b < 4; b++ {
			if mask>>uint(b)&1 != 0 {
				e = e.FlipBit(pb[b])
			}
		}
		return e
	case Byte1:
		base := bitvec.ByteBase(s.rng.Intn(bitvec.EntryAlignedBytes))
		pat := s.rng.Intn(256)
		for k := 0; k < 8; k++ {
			if pat>>uint(k)&1 != 0 {
				e = e.FlipBit(base + k)
			}
		}
		return e
	case Bits2:
		i, j := s.rng.Intn(bitvec.EntryBits), s.rng.Intn(bitvec.EntryBits)
		if i == j {
			return e
		}
		return e.FlipBit(i).FlipBit(j)
	case Bits3:
		i, j, k := s.rng.Intn(bitvec.EntryBits), s.rng.Intn(bitvec.EntryBits), s.rng.Intn(bitvec.EntryBits)
		if i == j || j == k || i == k {
			return e
		}
		return e.FlipBit(i).FlipBit(j).FlipBit(k)
	case Beat1:
		// Uniform random corruption of one beat: each of its 72 bits
		// flips with probability 1/2.
		beat := s.rng.Intn(bitvec.Beats)
		w := bitvec.V72FromUint64(s.rng.Uint64(), s.rng.Uint64())
		return e.SetBeat(beat, w)
	case Entry1:
		// Uniform random corruption of the whole entry.
		var v bitvec.V288
		for i := range v {
			v[i] = s.rng.Uint64()
		}
		v[4] &= 0xFFFFFFFF
		return v
	default:
		panic("errormodel: unknown pattern")
	}
}

// SampleEvent draws a pattern class according to the Table-1 mixture and
// returns a random instance of it.
func (s *Sampler) SampleEvent() (Pattern, bitvec.V288) {
	x := s.rng.Float64()
	var acc float64
	for p := Bit1; p < NumPatterns; p++ {
		acc += Table1[p]
		if x < acc {
			return p, s.Sample(p)
		}
	}
	return Entry1, s.Sample(Entry1)
}
