// Package interleave implements the paper's logical codeword interleaving
// (§6.1, Equations 1 and 2):
//
//	I_bits[i]  = NI_bits[(73·i) mod 288]
//	NI_bits[(73·i) mod 288] = I_bits[i]
//
// The non-interleaved ("NI", physical/wire) layout places codeword c on
// beat c. The interleaved ("I") layout spreads each physical aligned byte
// across all four codewords, two bits per codeword with stride 4 — the
// property that turns a byte error into a half-byte-correctable,
// always-detectable event, while the per-beat rotation ("checkerboard")
// keeps every pin error at one bit per codeword, preserving pin correction.
package interleave

import "hbm2ecc/internal/bitvec"

// Multiplier is the interleave stride from Eq. 1: the codeword size plus
// one. It is coprime to 288, so i -> 73i mod 288 permutes the entry bits.
const Multiplier = 73

// InvMultiplier is the modular inverse of Multiplier mod 288
// (73 * 217 ≡ 1 mod 288), used to map physical positions to interleaved.
const InvMultiplier = 217

var (
	toPhysical   [bitvec.EntryBits]int // interleaved index -> physical index
	fromPhysical [bitvec.EntryBits]int // physical index -> interleaved index
)

func init() {
	for i := 0; i < bitvec.EntryBits; i++ {
		p := (Multiplier * i) % bitvec.EntryBits
		toPhysical[i] = p
		fromPhysical[p] = i
	}
}

// PhysicalOf returns the physical (wire) bit index holding interleaved bit i.
func PhysicalOf(i int) int { return toPhysical[i] }

// InterleavedOf returns the interleaved bit index of physical bit p.
func InterleavedOf(p int) int { return fromPhysical[p] }

// pinPhase[k] selects the pins j ≡ k (mod 4) of a beat. Since
// 73(72c+j) ≡ 72((c+j) mod 4) + j (mod 288), bit j of interleaved
// codeword c sits on pin j of beat (c+j) mod 4: every bit keeps its pin,
// and the four codewords rotate across the beats by the pin's phase
// j mod 4. Gather and Scatter therefore move whole beats under these four
// masks instead of 288 single bits.
var pinPhase = [4]bitvec.V72{
	bitvec.V72FromUint64(0x1111111111111111, 0x11),
	bitvec.V72FromUint64(0x2222222222222222, 0x22),
	bitvec.V72FromUint64(0x4444444444444444, 0x44),
	bitvec.V72FromUint64(0x8888888888888888, 0x88),
}

// phased returns the beat whose phase-k pins come from x_k.
func phased(x0, x1, x2, x3 bitvec.V72) bitvec.V72 {
	return x0.And(pinPhase[0]).Or(x1.And(pinPhase[1])).Or(x2.And(pinPhase[2])).Or(x3.And(pinPhase[3]))
}

// Gather produces the interleaved view of a physical entry:
// out bit i = in bit (73·i mod 288). Codeword c is then beats c of the
// result, i.e. out bits [72c, 72c+72); its phase-k pins come from
// physical beat (c+k) mod 4.
func Gather(in bitvec.V288) bitvec.V288 {
	b0, b1, b2, b3 := in.Beats()
	return bitvec.FromBeats(
		phased(b0, b1, b2, b3),
		phased(b1, b2, b3, b0),
		phased(b2, b3, b0, b1),
		phased(b3, b0, b1, b2))
}

// Scatter is the inverse of Gather: it places interleaved bits back into
// their physical wire positions. Physical beat b takes its phase-k pins
// from codeword (b-k) mod 4.
func Scatter(in bitvec.V288) bitvec.V288 {
	c0, c1, c2, c3 := in.Beats()
	return bitvec.FromBeats(
		phased(c0, c3, c2, c1),
		phased(c1, c0, c3, c2),
		phased(c2, c1, c0, c3),
		phased(c3, c2, c1, c0))
}

// CodewordOfPhysical returns which interleaved codeword (0..3) receives
// physical bit p.
func CodewordOfPhysical(p int) int { return fromPhysical[p] / bitvec.BeatBits }

// InCodewordOfPhysical returns the bit position within its interleaved
// codeword of physical bit p.
func InCodewordOfPhysical(p int) int { return fromPhysical[p] % bitvec.BeatBits }

// PhysicalOfCodewordBit returns the physical bit index of bit j of
// interleaved codeword c.
func PhysicalOfCodewordBit(c, j int) int { return toPhysical[c*bitvec.BeatBits+j] }

// Symbol2bOfBit returns, for interleaved codeword bit j, the index of the
// 2-bit symbol it belongs to under the stride-4 pairing used by TrioECC's
// interleaved SEC-2bEC code: bits {8a+b, 8a+b+4} form symbol 4a+b. This
// pairing makes each physical aligned byte contribute exactly one 2b
// symbol to each of the four codewords.
func Symbol2bOfBit(j int) int { return (j/8)*4 + j%4 }

// Symbol2bBits returns the two codeword-bit positions of 2b symbol s under
// the stride-4 pairing.
func Symbol2bBits(s int) (int, int) {
	a, b := s/4, s%4
	return 8*a + b, 8*a + b + 4
}

// AdjacentSymbol2bOfBit returns the 2b-symbol index for the non-interleaved
// adjacent pairing (bits {2s, 2s+1} form symbol s), used when the SEC-2bEC
// code runs without interleaving.
func AdjacentSymbol2bOfBit(j int) int { return j / 2 }

// AdjacentSymbol2bBits returns the two codeword-bit positions of adjacent
// 2b symbol s.
func AdjacentSymbol2bBits(s int) (int, int) { return 2 * s, 2*s + 1 }
