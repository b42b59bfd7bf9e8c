// Linear encode (DESIGN.md §9): every encoder here places the payload on
// the standard wire layout (bitvec.FromDataECC) and derives four ECC
// bytes from it; interleaved binary schemes then permute the whole entry
// (interleave.Scatter). Binary check bytes come straight from the H rows
// (gf2.H72.EncodeData). Symbol check bytes, which scatter RS check
// symbols through a layout, come from a per-nibble contribution table
// built once at scheme construction from a per-bit basis.
//
// The bit-at-a-time encoders and extractors this replaces are kept in the
// tests (encodeRef, extractRef) as the differential baseline.
package core

import (
	"encoding/binary"
	"math/bits"

	"hbm2ecc/internal/bitvec"
)

// eccTab[n][v] is the four ECC bytes (beat b's byte in bits [8b, 8b+8))
// contributed by data nibble n (user data bits [4n, 4n+4)) holding value
// v: 64×16×4 B = 4 KB per scheme.
type eccTab [2 * bitvec.DataBytes][16]uint32

// build fills the table from basis[i], the ECC bytes of data bit i alone.
// Each entry is one XOR of a smaller entry and a basis vector, so the
// build never runs the encoder per entry.
func (t *eccTab) build(basis *[8 * bitvec.DataBytes]uint32) {
	for n := range t {
		for v := 1; v < 16; v++ {
			t[n][v] = t[n][v&(v-1)] ^ basis[4*n+bits.TrailingZeros(uint(v))]
		}
	}
}

// ecc returns the XOR of the contributions of every data nibble.
func (t *eccTab) ecc(data *[bitvec.DataBytes]byte) [4]byte {
	var e uint32
	for i, b := range data {
		e ^= t[2*i][b&15] ^ t[2*i+1][b>>4]
	}
	var out [4]byte
	binary.LittleEndian.PutUint32(out[:], e)
	return out
}

// buildLinear precomputes a Symbol scheme's ECC table. User data bit 8d+k
// sits at its standard wire position, inside one data symbol of one
// codeword; one unit-symbol RS encode gives the check symbols it feeds,
// scattered through the layout. Both layouts put every check symbol on
// the ECC pins, so those bits are the data bit's ECC-byte contribution;
// construction panics on a layout where that does not hold.
func (s *Symbol) buildLinear() {
	type loc struct{ cw, pos, k int }
	var where [bitvec.EntryBits]loc
	for i := range where {
		where[i].pos = -1
	}
	for cw, syms := range s.layout {
		for pos, bs := range syms {
			for k, p := range bs {
				where[p] = loc{cw, pos, k}
			}
		}
	}
	var basis [8 * bitvec.DataBytes]uint32
	sym := make([]uint8, s.rs.N)
	for i := range basis {
		l := where[bitvec.ByteBase((i/64)*bitvec.BytesPer72+i/8%8)+i%8]
		if l.pos < 0 || l.pos >= s.rs.K {
			panic("core: symbol layout puts a data bit outside the data symbols")
		}
		clear(sym)
		sym[l.pos] = 1 << uint(l.k)
		s.rs.Encode(sym[:s.rs.K], sym)
		var w bitvec.V288
		for t := s.rs.K; t < s.rs.N; t++ {
			w = s.scatterSymbol(l.cw, t, sym[t], w)
		}
		data, ecc := w.DataECC()
		if data != [bitvec.DataBytes]byte{} {
			panic("core: symbol layout puts a check bit outside the ECC pins")
		}
		basis[i] = binary.LittleEndian.Uint32(ecc[:])
	}
	s.ecc.build(&basis)
}
