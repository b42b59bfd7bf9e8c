package core

import (
	"math/rand"
	"testing"

	"hbm2ecc/internal/bitvec"
	"hbm2ecc/internal/codesearch"
	"hbm2ecc/internal/gf2"
)

// encodeRef is the original bit-at-a-time Binary encoder, kept as the
// differential-testing baseline for the linear encode table.
func (b *Binary) encodeRef(data [bitvec.DataBytes]byte) bitvec.V288 {
	var wire bitvec.V288
	for c := 0; c < 4; c++ {
		var word uint64
		for k := 0; k < 8; k++ {
			word |= uint64(data[c*8+k]) << uint(8*k)
		}
		cw := b.h.Codeword(word)
		for j := 0; j < gf2.N; j++ {
			if cw.Bit(j) != 0 {
				wire = wire.FlipBit(int(b.physOf[c][j]))
			}
		}
	}
	return wire
}

// extractRef is the original bit-at-a-time Binary payload extractor.
func (b *Binary) extractRef(wire bitvec.V288) [bitvec.DataBytes]byte {
	var data [bitvec.DataBytes]byte
	for c := 0; c < 4; c++ {
		for k := 0; k < 8; k++ {
			var v byte
			for bit := 0; bit < 8; bit++ {
				v |= byte(wire.Bit(int(b.physOf[c][8*k+bit]))) << uint(bit)
			}
			data[c*8+k] = v
		}
	}
	return data
}

// encodeRef is the original gather/RS-encode/scatter Symbol encoder.
func (s *Symbol) encodeRef(data [bitvec.DataBytes]byte) bitvec.V288 {
	wire := bitvec.FromDataECC(data, [4]byte{})
	nsym := s.rs.N
	k := s.rs.K
	symbols := make([]uint8, nsym)
	for cw := range s.layout {
		s.gatherSymbols(cw, wire, symbols)
		s.rs.Encode(symbols[:k:k], symbols)
		for t := k; t < nsym; t++ {
			wire = s.scatterSymbol(cw, t, symbols[t], wire)
		}
	}
	return wire
}

// extractRef reads the standard layout one bit at a time, as every
// symbol scheme's extractor did.
func (s *Symbol) extractRef(wire bitvec.V288) [bitvec.DataBytes]byte {
	var data [bitvec.DataBytes]byte
	for d := range data {
		base := bitvec.ByteBase((d/8)*bitvec.BytesPer72 + d%8)
		for k := 0; k < 8; k++ {
			data[d] |= byte(wire.Bit(base+k)) << uint(k)
		}
	}
	return data
}

// refCodec is implemented by every scheme type that keeps a reference
// encoder and extractor.
type refCodec interface {
	encodeRef([bitvec.DataBytes]byte) bitvec.V288
	extractRef(bitvec.V288) [bitvec.DataBytes]byte
}

// asRefCodec returns the reference codec behind s; the reconfigurable
// decoder shares its Duet-mode encoder across both modes.
func asRefCodec(t testing.TB, s Scheme) refCodec {
	switch s := s.(type) {
	case *Reconfigurable:
		return s.duet
	case refCodec:
		return s
	}
	t.Fatalf("%s keeps no reference codec", s.Name())
	return nil
}

// linearSchemes is every organization the linear tables must match: all
// of allSchemesDiff plus a binary scheme over a freshly searched,
// non-production H in both codeword layouts.
func linearSchemes(t testing.TB) []Scheme {
	res := codesearch.Search(codesearch.Options{Seed: 7, Population: 6, Generations: 2})
	h, err := gf2.NewH72(res.Cols)
	if err != nil {
		t.Fatal(err)
	}
	return append(allSchemesDiff(),
		NewBinaryFromH("SearchedTrio", h, true, true, true),
		NewBinaryFromH("SearchedNI", h, false, false, true),
	)
}

// TestLinearMatchesRefOnBasis drives every unit data bit through Encode
// and every unit wire bit through ExtractData: by linearity, agreement on
// these bases plus a few dense words pins the whole maps.
func TestLinearMatchesRefOnBasis(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, s := range linearSchemes(t) {
		ref := asRefCodec(t, s)
		var inputs [][bitvec.DataBytes]byte
		for i := 0; i < 8*bitvec.DataBytes; i++ {
			var d [bitvec.DataBytes]byte
			d[i/8] = 1 << uint(i%8)
			inputs = append(inputs, d)
		}
		for i := 0; i < 64; i++ {
			inputs = append(inputs, randomData(rng))
		}
		for _, d := range inputs {
			w := s.Encode(d)
			if want := ref.encodeRef(d); w != want {
				t.Fatalf("%s: Encode(%x) = %v, ref %v", s.Name(), d, w, want)
			}
			if got := s.ExtractData(w); got != d {
				t.Fatalf("%s: ExtractData(Encode(%x)) = %x", s.Name(), d, got)
			}
		}
		for p := 0; p < bitvec.EntryBits; p++ {
			w := bitvec.V288{}.FlipBit(p)
			if got, want := s.ExtractData(w), ref.extractRef(w); got != want {
				t.Fatalf("%s: ExtractData(bit %d) = %x, ref %x", s.Name(), p, got, want)
			}
		}
	}
}

// FuzzEncodeVsRef requires the table-driven Encode and ExtractData to
// agree with the bit-at-a-time references on every scheme: Encode on an
// arbitrary payload, ExtractData on an arbitrary (not necessarily valid)
// wire word, and ExtractData(Encode(d)) == d.
func FuzzEncodeVsRef(f *testing.F) {
	for _, s := range fuzzSeedWords() {
		f.Add(s, s)
	}
	schemes := linearSchemes(f)
	f.Fuzz(func(t *testing.T, payload, raw []byte) {
		var d [bitvec.DataBytes]byte
		copy(d[:], payload)
		var wraw [36]byte
		copy(wraw[:], raw)
		wire := v288FromBytes(wraw[:])
		for _, s := range schemes {
			ref := asRefCodec(t, s)
			enc := s.Encode(d)
			if want := ref.encodeRef(d); enc != want {
				t.Fatalf("%s: Encode(%x) = %v, ref %v", s.Name(), d, enc, want)
			}
			if got := s.ExtractData(enc); got != d {
				t.Fatalf("%s: ExtractData(Encode(%x)) = %x", s.Name(), d, got)
			}
			if got, want := s.ExtractData(wire), ref.extractRef(wire); got != want {
				t.Fatalf("%s: ExtractData(%v) = %x, ref %x", s.Name(), wire, got, want)
			}
		}
	})
}
