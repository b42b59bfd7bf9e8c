// Bit-sliced structure-of-arrays layout (DESIGN.md §13): a Slab holds up
// to 64 entries transposed so that lane word p carries bit p of every
// entry, one entry per uint64 bit position. In this layout any GF(2)
// parity check over entry bits becomes a straight-line XOR of lane words
// that evaluates the check for all 64 entries at once, and "which entries
// have a nonzero syndrome" is a single OR/compare mask.
package bitvec

// SlabLanes is the number of entries one Slab carries.
const SlabLanes = 64

// Slab is the bit-transposed (structure-of-arrays) image of up to 64
// entries: Slab[p] bit j is bit p of entry j. Entries beyond the
// transposed count have all their bits zero.
type Slab [EntryBits]uint64

// Transpose64 fills slab with the bit-transposed image of entries.
// len(entries) must be at most SlabLanes; lanes for absent entries are
// zero. Only the 288 architectural bits are transposed: stray high bits
// in entries[i][4] are ignored (Untranspose64 therefore returns entries
// in canonical form, with those bits cleared).
func Transpose64(entries []V288, slab *Slab) {
	if len(entries) > SlabLanes {
		panic("bitvec: Transpose64 of more than 64 entries")
	}
	var m [64]uint64
	for w := 0; w < 5; w++ {
		for j := range entries {
			m[j] = entries[j][w]
		}
		for j := len(entries); j < 64; j++ {
			m[j] = 0
		}
		transpose64(&m)
		if w == 4 {
			copy(slab[256:288], m[:32])
			return
		}
		copy(slab[64*w:64*w+64], m[:])
	}
}

// Untranspose64 is the inverse of Transpose64: it reconstructs
// len(entries) entries (at most SlabLanes) from the slab's lane words.
// Reconstructed entries are canonical (bits above the 288th are zero).
func Untranspose64(slab *Slab, entries []V288) {
	if len(entries) > SlabLanes {
		panic("bitvec: Untranspose64 into more than 64 entries")
	}
	var m [64]uint64
	for w := 0; w < 5; w++ {
		if w == 4 {
			copy(m[:32], slab[256:288])
			for i := 32; i < 64; i++ {
				m[i] = 0
			}
		} else {
			copy(m[:], slab[64*w:64*w+64])
		}
		transpose64(&m)
		for j := range entries {
			entries[j][w] = m[j]
		}
	}
}

// TransposeWords transposes a 64x64 bit matrix in place, where a[r] bit c
// is the element at row r, column c: afterwards a[c] bit r holds what a[r]
// bit c held. Beyond backing Transpose64/Untranspose64, it lets the slab
// decode kernels flip a batch's syndrome lanes into per-lane packed
// syndrome words with one call when many lanes need resolution.
func TransposeWords(a *[64]uint64) { transpose64(a) }

// transpose64 transposes a 64x64 bit matrix in place, where a[r] bit c is
// the element at row r, column c. It is the classic butterfly network:
// at stage j it swaps the (row bit j clear, column bit j set) quadrant
// with the (row bit j set, column bit j clear) quadrant of every 2j x 2j
// block, halving j each stage.
func transpose64(a *[64]uint64) {
	j := 32
	m := uint64(0x00000000FFFFFFFF)
	for j != 0 {
		for k := 0; k < 64; k = (k + j + 1) &^ j {
			t := ((a[k] >> uint(j)) ^ a[k+j]) & m
			a[k+j] ^= t
			a[k] ^= t << uint(j)
		}
		j >>= 1
		m ^= m << uint(j)
	}
}
