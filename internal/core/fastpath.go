// Decode fast path (DESIGN.md §9): table-driven syndrome decoding for the
// binary and symbol schemes, plus the batch decode entry points.
//
// The reference decoders (DecodeWireRef) compute syndromes by folding
// per-row wire masks (binary) or by per-symbol log/exp multiplies (RS).
// The fast path replaces both with precomputed lookup tables:
//
//   - Binary schemes: a byte-sliced table mapping each of the 36 wire
//     bytes to the packed syndromes of all four codewords (36 KB per
//     scheme), and a per-codeword syndrome→correction table resolving a
//     nonzero syndrome straight to wire-bit flips plus the aligned-byte
//     and pin indices the correction sanity check needs (8 KB).
//   - Symbol schemes: a segment plan extracting each 8-bit symbol from
//     the packed wire words in at most two shift-and-mask steps, and an
//     rscode.SynTab accumulating all check syndromes with one lookup per
//     symbol.
//
// Because every code here is linear, the fast path must agree with the
// reference bit-for-bit on every error pattern; the differential, golden
// and fuzz tests in this package and internal/evalmc lock that in.
package core

import (
	"hbm2ecc/internal/bitvec"
	"hbm2ecc/internal/ecc"
	"hbm2ecc/internal/gf2"
	"hbm2ecc/internal/rscode"
)

// wireBytes is the number of 8-bit slices of a packed 288-bit entry.
const wireBytes = bitvec.EntryBits / 8

// binCorr resolves one nonzero codeword syndrome on the fast path.
type binCorr struct {
	// n is the number of wire bits to flip (1 or 2), or -1 when the
	// syndrome is uncorrectable (DUE).
	n    int8
	bits [2]int16 // wire bit positions to flip
	// byteIdx is the aligned byte containing every flipped bit, or -1;
	// pinIdx is the pin carrying every flipped bit, or -1. Precomputing
	// both makes the entry-level correction sanity check a pair of
	// integer comparisons per correcting codeword.
	byteIdx int16
	pinIdx  int16
}

// binFast holds a Binary scheme's precomputed decode tables.
type binFast struct {
	// synTab[i][v] is the contribution of wire byte i (entry bits
	// [8i, 8i+8)) holding value v to the syndromes of all four codewords,
	// packed with codeword c in bits [8c, 8c+8).
	synTab [wireBytes][256]uint32
	// corr[c][s] resolves nonzero syndrome s of codeword c.
	corr [4][256]binCorr
}

// buildFast precomputes the fast-path tables from the reference ones; it
// runs once per scheme construction.
func (b *Binary) buildFast() {
	var contrib [bitvec.EntryBits]uint32
	for c := 0; c < 4; c++ {
		for j := 0; j < gf2.N; j++ {
			contrib[b.physOf[c][j]] = uint32(b.h.Cols[j]) << uint(8*c)
		}
	}
	for i := 0; i < wireBytes; i++ {
		for v := 1; v < 256; v++ {
			var s uint32
			for k := 0; k < 8; k++ {
				if v>>uint(k)&1 != 0 {
					s ^= contrib[8*i+k]
				}
			}
			b.fast.synTab[i][v] = s
		}
	}
	for c := 0; c < 4; c++ {
		for s := 1; s < 256; s++ {
			e := binCorr{n: -1, byteIdx: -1, pinIdx: -1}
			if j := b.lutBit[s]; j >= 0 {
				bit := int(b.physOf[c][j])
				e = binCorr{
					n:       1,
					bits:    [2]int16{int16(bit), -1},
					byteIdx: int16(bitvec.ByteOfBit(bit)),
					pinIdx:  int16(bitvec.PinOfBit(bit)),
				}
			} else if b.correct2b {
				if sym := b.lutPair[s]; sym >= 0 {
					p := b.pairBits[sym]
					x, y := int(b.physOf[c][p[0]]), int(b.physOf[c][p[1]])
					e = binCorr{n: 2, bits: [2]int16{int16(x), int16(y)}, byteIdx: -1, pinIdx: -1}
					if bitvec.ByteOfBit(x) == bitvec.ByteOfBit(y) {
						e.byteIdx = int16(bitvec.ByteOfBit(x))
					}
					if bitvec.PinOfBit(x) == bitvec.PinOfBit(y) {
						e.pinIdx = int16(bitvec.PinOfBit(x))
					}
				}
			}
			b.fast.corr[c][s] = e
		}
	}
}

// packedSyndromes computes all four codeword syndromes of recv with 36
// byte-sliced table lookups, codeword c in bits [8c, 8c+8). Bits above
// the 288th are never indexed, so callers need not mask them. The four
// independent accumulators keep the XOR reduction a tree instead of a
// 36-deep dependency chain.
func (b *Binary) packedSyndromes(recv *bitvec.V288) uint32 {
	t := &b.fast.synTab
	w0, w1, w2, w3, w4 := recv[0], recv[1], recv[2], recv[3], recv[4]
	s0 := t[0][uint8(w0)] ^ t[1][uint8(w0>>8)] ^ t[2][uint8(w0>>16)] ^
		t[3][uint8(w0>>24)] ^ t[4][uint8(w0>>32)] ^ t[5][uint8(w0>>40)] ^
		t[6][uint8(w0>>48)] ^ t[7][uint8(w0>>56)] ^ t[32][uint8(w4)]
	s1 := t[8][uint8(w1)] ^ t[9][uint8(w1>>8)] ^ t[10][uint8(w1>>16)] ^
		t[11][uint8(w1>>24)] ^ t[12][uint8(w1>>32)] ^ t[13][uint8(w1>>40)] ^
		t[14][uint8(w1>>48)] ^ t[15][uint8(w1>>56)] ^ t[33][uint8(w4>>8)]
	s2 := t[16][uint8(w2)] ^ t[17][uint8(w2>>8)] ^ t[18][uint8(w2>>16)] ^
		t[19][uint8(w2>>24)] ^ t[20][uint8(w2>>32)] ^ t[21][uint8(w2>>40)] ^
		t[22][uint8(w2>>48)] ^ t[23][uint8(w2>>56)] ^ t[34][uint8(w4>>16)]
	s3 := t[24][uint8(w3)] ^ t[25][uint8(w3>>8)] ^ t[26][uint8(w3>>16)] ^
		t[27][uint8(w3>>24)] ^ t[28][uint8(w3>>32)] ^ t[29][uint8(w3>>40)] ^
		t[30][uint8(w3>>48)] ^ t[31][uint8(w3>>56)] ^ t[35][uint8(w4>>24)]
	return (s0 ^ s1) ^ (s2 ^ s3)
}

// resolveFast turns the packed syndromes of recv into a decode outcome,
// writing *out in place (every field is set — callers reuse result
// buffers). It must agree bit-for-bit with the reference path in
// DecodeWireRef.
func (b *Binary) resolveFast(recv *bitvec.V288, packed uint32, out *WireResult) {
	out.Wire = *recv
	out.CorrectedBits = 0
	if packed == 0 {
		out.Status = ecc.OK
		return
	}
	var flips [8]int16
	nf := 0
	correcting := 0
	sameByte, samePin := true, true
	var byte0, pin0 int16
	for c := 0; c < 4; c++ {
		s := uint8(packed >> uint(8*c))
		if s == 0 {
			continue
		}
		e := &b.fast.corr[c][s]
		if e.n < 0 {
			out.Status = ecc.Detected
			return
		}
		if correcting == 0 {
			byte0, pin0 = e.byteIdx, e.pinIdx
		} else {
			if e.byteIdx < 0 || e.byteIdx != byte0 {
				sameByte = false
			}
			if e.pinIdx < 0 || e.pinIdx != pin0 {
				samePin = false
			}
		}
		flips[nf] = e.bits[0]
		nf++
		if e.n == 2 {
			flips[nf] = e.bits[1]
			nf++
		}
		correcting++
	}
	if byte0 < 0 {
		sameByte = false
	}
	if pin0 < 0 {
		samePin = false
	}
	if b.csc && correcting > 1 && !sameByte && !samePin {
		out.Status = ecc.Detected
		return
	}
	for _, bit := range flips[:nf] {
		out.Wire[uint(bit)>>6] ^= 1 << (uint(bit) & 63)
	}
	out.Status = ecc.Corrected
	out.CorrectedBits = nf
}

// decodeWireFast is the single-shot table-driven decode.
func (b *Binary) decodeWireFast(recv bitvec.V288) WireResult {
	var out WireResult
	b.resolveFast(&recv, b.packedSyndromes(&recv), &out)
	return out
}

// binBatchChunk sizes the batch syndrome buffer; it matches the
// evaluator's decode batch so one chunk covers one evaluator flush.
const binBatchChunk = 256

// DecodeWireBatch implements BatchDecoder in two passes per chunk: a
// tight syndrome sweep that keeps the lookup tables hot and lets the
// loads of consecutive entries overlap, then the (usually trivial)
// per-entry resolution. The byte-sliced tables beat a bit-sliced slab
// here: the 64x64 transpose alone costs more than the whole two-pass
// sweep (~32ns vs ~15ns per clean entry, DESIGN.md §14).
func (b *Binary) DecodeWireBatch(recv []bitvec.V288, out []WireResult) {
	checkBatchOut(len(recv), len(out))
	var synBuf [binBatchChunk]uint32
	for off := 0; off < len(recv); off += binBatchChunk {
		chunk := recv[off:min(off+binBatchChunk, len(recv))]
		syn := synBuf[:len(chunk)]
		for i := range chunk {
			syn[i] = b.packedSyndromes(&chunk[i])
		}
		res := out[off : off+len(chunk)]
		for i := range chunk {
			b.resolveFast(&chunk[i], syn[i], &res[i])
		}
	}
}

// symSegment extracts a contiguous run of a symbol's bits from one packed
// wire word: value |= (wire[word]>>rsh) & mask << lsh.
type symSegment struct {
	word uint8
	rsh  uint8
	mask uint8
	lsh  uint8
}

// symFast holds a Symbol scheme's precomputed decode tables.
type symFast struct {
	// segs[cw][pos] is the extraction plan for symbol pos of codeword cw.
	// Both paper layouts resolve to at most two segments per symbol (one
	// for the byte-aligned SSC-DSD+ symbols, two nibbles for I:SSC).
	segs [][][]symSegment
	tab  *rscode.SynTab
	// sliced holds the RS syndrome map as GF(2) parities for the 64-lane
	// slab kernel (sliced.go); codeword cw's syndrome j occupies rows
	// [8(cw·R+j), 8(cw·R+j)+8), low bit first.
	sliced slicedTables
}

// buildFast precomputes the symbol extraction plans and syndrome table.
func (s *Symbol) buildFast() {
	s.fast.segs = make([][][]symSegment, len(s.layout))
	for cw := range s.layout {
		s.fast.segs[cw] = make([][]symSegment, len(s.layout[cw]))
		for pos, bits := range s.layout[cw] {
			s.fast.segs[cw][pos] = buildSegments(bits)
		}
	}
	s.fast.tab = s.rs.NewSynTab()
	t := &s.fast.sliced
	t.init(len(s.layout) * s.rs.R * 8)
	bitRows := s.rs.SynBitRows()
	for cw := range s.layout {
		for r, row := range bitRows {
			for _, sb := range row {
				t.add(cw*s.rs.R*8+r, int(s.layout[cw][sb>>3][sb&7]))
			}
		}
	}
}

// buildSegments groups a symbol's 8 wire-bit positions into maximal runs
// that are contiguous on the wire and do not cross a 64-bit word.
func buildSegments(bits [8]int16) []symSegment {
	var segs []symSegment
	for k := 0; k < 8; {
		p := int(bits[k])
		w := p >> 6
		width := 1
		for k+width < 8 && int(bits[k+width]) == p+width && (p+width)>>6 == w {
			width++
		}
		segs = append(segs, symSegment{
			word: uint8(w),
			rsh:  uint8(p & 63),
			mask: uint8(1<<uint(width) - 1),
			lsh:  uint8(k),
		})
		k += width
	}
	return segs
}

// gatherFast extracts codeword cw's symbols via the segment plan.
func (s *Symbol) gatherFast(cw int, wire *bitvec.V288, out []uint8) {
	for pos, segs := range s.fast.segs[cw] {
		var v uint8
		for i := range segs {
			g := &segs[i]
			v |= uint8(wire[g.word]>>g.rsh) & g.mask << g.lsh
		}
		out[pos] = v
	}
}

// decodeSSCFast mirrors decodeSSC with table-driven gather and syndromes.
func (s *Symbol) decodeSSCFast(recv bitvec.V288) WireResult {
	var bufs [2][18]uint8
	var results [2]rscode.Result
	correcting := 0
	for cw := 0; cw < 2; cw++ {
		s.gatherFast(cw, &recv, bufs[cw][:])
		p := s.fast.tab.Packed(bufs[cw][:])
		results[cw] = s.rs.DecodeSSCSyn(bufs[cw][:], uint8(p), uint8(p>>8))
		switch results[cw].Status {
		case ecc.Detected:
			return WireResult{Wire: recv, Status: ecc.Detected}
		case ecc.Corrected:
			correcting++
		}
	}
	return s.applySSC(recv, &results, correcting)
}

// decodeDSDPlusFast mirrors decodeDSDPlus with table-driven gather and
// syndromes.
func (s *Symbol) decodeDSDPlusFast(recv bitvec.V288) WireResult {
	var buf [36]uint8
	s.gatherFast(0, &recv, buf[:])
	p := s.fast.tab.Packed(buf[:])
	syn := [4]uint8{uint8(p), uint8(p >> 8), uint8(p >> 16), uint8(p >> 24)}
	r := s.rs.DecodeSSCDSDPlusSyn(buf[:], syn)
	return s.applyDSDPlus(recv, r)
}

// DecodeWireBatch implements BatchDecoder via the bit-sliced slab kernel:
// per-entry RS decoding costs 36-54 table lookups even when clean, so for
// symbol schemes the 64x64 transpose plus word-parallel syndrome lanes
// win outright (unlike the binary schemes, see Binary.DecodeWireBatch).
// Bounded-distance organizations (DSC, SSC-TSD) share the clean-lane
// screen and rerun their scalar decode only on dirty lanes.
func (s *Symbol) DecodeWireBatch(recv []bitvec.V288, out []WireResult) {
	checkBatchOut(len(recv), len(out))
	var slab bitvec.Slab
	for off := 0; off < len(recv); off += bitvec.SlabLanes {
		chunk := recv[off:min(off+bitvec.SlabLanes, len(recv))]
		bitvec.Transpose64(chunk, &slab)
		s.decodeSlab(&slab, chunk, out[off:off+len(chunk)])
	}
}

// DecodeWireBatch implements BatchDecoder for the reconfigurable decoder.
func (r *Reconfigurable) DecodeWireBatch(recv []bitvec.V288, out []WireResult) {
	r.active().DecodeWireBatch(recv, out)
}

// DecodeWireRef implements RefDecoder for the reconfigurable decoder.
func (r *Reconfigurable) DecodeWireRef(recv bitvec.V288) WireResult {
	return r.active().DecodeWireRef(recv)
}
