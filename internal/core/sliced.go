// Bit-sliced 64-lane decode kernel behind Symbol.DecodeWireBatch
// (DESIGN.md §14). A bitvec.Slab holds 64 entries transposed so lane word
// p carries bit p of every entry; in that layout each of a symbol scheme's
// (at most 32) binary syndrome bits is a straight-line XOR of lane words
// evaluated for all 64 entries at once, and "which entries need real
// decoding" is the OR of the syndrome lanes. Clean lanes never touch the
// per-entry machinery; dirty lanes extract their packed syndrome from the
// lane words and fall into the syndrome-only RS entry points
// (DecodeSSCSyn / DecodeSSCDSDPlusSyn).
//
// GF(2^8) multiplication by a constant is GF(2)-linear, so every bit of
// every RS syndrome is a parity of codeword bits (rscode.SynBitRows); the
// layout maps those to wire lanes.
package core

import (
	"fmt"
	"math/bits"

	"hbm2ecc/internal/bitvec"
	"hbm2ecc/internal/ecc"
	"hbm2ecc/internal/rscode"
)

// checkBatchOut enforces the batch output contract shared by every
// DecodeWireBatch implementation.
func checkBatchOut(entries, results int) {
	if results < entries {
		panic(fmt.Sprintf("core: batch decode output buffer too small: %d results for %d entries", results, entries))
	}
}

// slicedTables is a scheme's syndrome map as GF(2) parities: rows[r]
// lists the wire lanes whose XOR is syndrome bit r.
type slicedTables struct {
	rows [][]uint16
}

func (t *slicedTables) init(nrows int) {
	if nrows > 32 {
		panic("core: sliced kernel supports at most 32 syndrome bits")
	}
	t.rows = make([][]uint16, nrows)
}

func (t *slicedTables) add(row, lane int) {
	t.rows[row] = append(t.rows[row], uint16(lane))
}

// denseSyn evaluates every syndrome bit for all 64 lanes of slab and
// returns the OR of the syndrome lanes: bit j set means entry j has a
// nonzero syndrome.
func (t *slicedTables) denseSyn(slab *bitvec.Slab, syn *[32]uint64) uint64 {
	var dirty uint64
	for r, row := range t.rows {
		var acc uint64
		for _, p := range row {
			acc ^= slab[p]
		}
		syn[r] = acc
		dirty |= acc
	}
	return dirty
}

// transposeBreakEven is the dirty-lane count above which decodeSlab
// flips the syndrome lanes into per-lane packed words with one 64x64
// transpose (~6ns/lane amortized) instead of gathering bit-by-bit per
// dirty lane (~32 extractions each). Sparse dirt gathers; dense dirt
// transposes.
const transposeBreakEven = 8

// lanePacked gathers lane j's packed syndrome word from the syndrome
// lanes.
func lanePacked(syn *[32]uint64, j int) uint64 {
	var w uint64
	for r := 0; r < 32; r++ {
		w |= syn[r] >> uint(j) & 1 << uint(r)
	}
	return w
}

// packLanes transposes the syndrome lanes so packed[j] is lane j's packed
// syndrome word.
func packLanes(syn *[32]uint64, packed *[64]uint64) {
	copy(packed[:32], syn[:])
	for i := 32; i < 64; i++ {
		packed[i] = 0
	}
	bitvec.TransposeWords(packed)
}

// decodeSlab decodes up to 64 entries from their transposed slab:
// syndrome lanes for the whole slab, clean lanes answered with a
// constant-time OK result, dirty lanes resolved through resolveLane.
// recv must hold the entries the slab was transposed from.
func (s *Symbol) decodeSlab(slab *bitvec.Slab, recv []bitvec.V288, out []WireResult) {
	var syn [32]uint64
	dirty := s.fast.sliced.denseSyn(slab, &syn)
	if n := len(recv); n < bitvec.SlabLanes {
		dirty &= 1<<uint(n) - 1
	}
	var packed [64]uint64
	transposed := bits.OnesCount64(dirty) >= transposeBreakEven
	if transposed {
		packLanes(&syn, &packed)
	}
	for i := range recv {
		if dirty>>uint(i)&1 == 0 {
			out[i] = WireResult{Wire: recv[i], Status: ecc.OK}
			continue
		}
		w := packed[i]
		if !transposed {
			w = lanePacked(&syn, i)
		}
		s.resolveLane(w, &recv[i], &out[i])
	}
}

// resolveLane slices one dirty lane's RS syndrome bytes out of its packed
// word (codeword cw's syndrome j occupies bits [8(cw·R+j), 8(cw·R+j)+8))
// and resolves them through the syndrome-only decode entry points. The
// decoders touch the codeword buffer only to apply the correction and the
// results carry the position and value, so a throwaway scratch buffer
// stands in for the symbol gather. Bounded-distance organizations have no
// syndrome-only entry point and rerun their scalar decode on the received
// entry; they still benefit from the clean-lane screen.
func (s *Symbol) resolveLane(packed uint64, recv *bitvec.V288, out *WireResult) {
	switch {
	case s.boundedT > 0:
		*out = s.decodeBounded(*recv)
	case s.dsdPlus:
		sb := [4]uint8{
			uint8(packed), uint8(packed >> 8),
			uint8(packed >> 16), uint8(packed >> 24),
		}
		var scratch [36]uint8
		*out = s.applyDSDPlus(*recv, s.rs.DecodeSSCDSDPlusSyn(scratch[:], sb))
	default:
		var results [2]rscode.Result
		correcting := 0
		for cw := 0; cw < 2; cw++ {
			var scratch [18]uint8
			s0 := uint8(packed >> uint(16*cw))
			s1 := uint8(packed >> uint(16*cw+8))
			results[cw] = s.rs.DecodeSSCSyn(scratch[:], s0, s1)
			switch results[cw].Status {
			case ecc.Detected:
				*out = WireResult{Wire: *recv, Status: ecc.Detected}
				return
			case ecc.Corrected:
				correcting++
			}
		}
		*out = s.applySSC(*recv, &results, correcting)
	}
}
