package core

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"hbm2ecc/internal/bitvec"
	"hbm2ecc/internal/ecc"
	"hbm2ecc/internal/gf2"
	"hbm2ecc/internal/hsiao"
	"hbm2ecc/internal/interleave"
	"hbm2ecc/internal/sec2bec"
)

// Binary is an entry-level scheme built from four (72,64) binary codewords,
// one per DRAM beat (non-interleaved) or spread across beats (interleaved).
// It covers the paper's NI:SEC-DED, I:SEC-DED, DuetECC, NI:SEC-2bEC,
// I:SEC-2bEC and TrioECC rows depending on its construction flags.
type Binary struct {
	name        string
	interleaved bool
	csc         bool
	correct2b   bool

	h      *gf2.H72
	lutBit [256]int16
	// lutPair maps a syndrome to an aligned 2b-symbol index under the
	// active pairing (stride-4 when interleaved, adjacent otherwise), or
	// -1. Only consulted when correct2b is set.
	lutPair  [256]int16
	pairBits [36][2]int

	// physOf maps (codeword, codeword bit) to the wire bit index.
	physOf [4][72]int16
	// wireRows holds the H rows of each codeword as wire-space masks, so
	// the reference decoder computes syndromes straight from the received
	// entry.
	wireRows [4][8]bitvec.V288

	// fast holds the table-driven decode path (fastpath.go).
	fast binFast
}

// newBinary wires up a Binary scheme from a parity-check matrix.
func newBinary(name string, h *gf2.H72, interleaved, csc, correct2b bool) *Binary {
	b := &Binary{
		name:        name,
		interleaved: interleaved,
		csc:         csc,
		correct2b:   correct2b,
		h:           h,
		lutBit:      h.SyndromeLUT(),
	}
	for c := 0; c < 4; c++ {
		for j := 0; j < gf2.N; j++ {
			if interleaved {
				b.physOf[c][j] = int16(interleave.PhysicalOfCodewordBit(c, j))
			} else {
				b.physOf[c][j] = int16(c*gf2.N + j)
			}
		}
	}
	for c := 0; c < 4; c++ {
		for r := 0; r < gf2.R; r++ {
			var mask bitvec.V288
			for j := 0; j < gf2.N; j++ {
				if h.Cols[j]>>uint(r)&1 != 0 {
					mask = mask.FlipBit(int(b.physOf[c][j]))
				}
			}
			b.wireRows[c][r] = mask
		}
	}
	for i := range b.lutPair {
		b.lutPair[i] = -1
	}
	if correct2b {
		for s := 0; s < 36; s++ {
			var x, y int
			if interleaved {
				x, y = interleave.Symbol2bBits(s)
			} else {
				x, y = interleave.AdjacentSymbol2bBits(s)
			}
			b.pairBits[s] = [2]int{x, y}
			b.lutPair[h.Cols[x]^h.Cols[y]] = int16(s)
		}
	}
	b.buildFast()
	return b
}

// NewSECDED builds a SEC-DED-based scheme from the (72,64) Hsiao baseline.
// interleaved selects logical codeword interleaving; csc adds the
// correction sanity check. (interleaved && csc) is DuetECC.
func NewSECDED(interleaved, csc bool) *Binary {
	name := "NI:SEC-DED"
	switch {
	case interleaved && csc:
		name = "DuetECC"
	case interleaved:
		name = "I:SEC-DED"
	case csc:
		name = "NI:SEC-DED+CSC"
	}
	return newBinary(name, hsiao.New().H, interleaved, csc, false)
}

// NewSEC2bEC builds a scheme around the GA-searched SEC-2bEC code with
// 2b-symbol correction enabled. (interleaved && csc) is TrioECC.
func NewSEC2bEC(interleaved, csc bool) *Binary {
	name := "NI:SEC-2bEC"
	switch {
	case interleaved && csc:
		name = "TrioECC"
	case interleaved:
		name = "I:SEC-2bEC"
	case csc:
		name = "NI:SEC-2bEC+CSC"
	}
	return newBinary(name, sec2bec.New().H, interleaved, csc, true)
}

// NewBinaryFromH builds an entry-level scheme around a caller-supplied
// (72,64) parity-check matrix — the extension point for experimenting with
// freshly-searched codes (see cmd/codesearch and examples/customcode).
// When correct2b is set, the matrix must satisfy the SEC-2bEC constraints
// or decoding 2b symbols will silently be impossible; validate it with
// codesearch.Validate first.
func NewBinaryFromH(name string, h *gf2.H72, interleaved, csc, correct2b bool) *Binary {
	return newBinary(name, h, interleaved, csc, correct2b)
}

// NewDuetECC returns the paper's DuetECC organization: interleaved SEC-DED
// with the correction sanity check.
func NewDuetECC() *Binary { return NewSECDED(true, true) }

// NewTrioECC returns the paper's TrioECC organization: interleaved
// SEC-2bEC with the correction sanity check.
func NewTrioECC() *Binary { return NewSEC2bEC(true, true) }

// Name implements Scheme.
func (b *Binary) Name() string { return b.name }

// CorrectsPins implements Scheme: all binary organizations keep pin errors
// at one bit per codeword and therefore correct them.
func (b *Binary) CorrectsPins() bool { return true }

// Encode implements Scheme. User data byte 8c+k is carried by data bits
// [8k, 8k+8) of codeword c. Codeword c is built on beat c of the standard
// layout (data word plus check byte) and, when interleaved, the entry is
// then permuted onto the wire by interleave.Scatter.
func (b *Binary) Encode(data [bitvec.DataBytes]byte) bitvec.V288 {
	var checks [4]byte
	for c := range checks {
		checks[c] = b.h.EncodeData(binary.LittleEndian.Uint64(data[8*c:]))
	}
	wire := bitvec.FromDataECC(data, checks)
	if b.interleaved {
		wire = interleave.Scatter(wire)
	}
	return wire
}

// ExtractData implements Scheme: the inverse permutation of Encode,
// keeping only the data words.
func (b *Binary) ExtractData(wire bitvec.V288) [bitvec.DataBytes]byte {
	if b.interleaved {
		wire = interleave.Gather(wire)
	}
	data, _ := wire.DataECC()
	return data
}

// syndrome computes the 8-bit syndrome of codeword c directly from the
// received wire entry (reference path; the fast path uses packedSyndromes).
func (b *Binary) syndrome(c int, wire bitvec.V288) uint8 {
	var s uint8
	for r := 0; r < gf2.R; r++ {
		m := &b.wireRows[c][r]
		// Parity of a masked XOR-fold: XOR-folding the per-word ANDs
		// preserves total bit parity.
		fold := m[0]&wire[0] ^ m[1]&wire[1] ^ m[2]&wire[2] ^ m[3]&wire[3] ^ m[4]&wire[4]
		s |= uint8(bits.OnesCount64(fold)&1) << uint(r)
	}
	return s
}

// DecodeWire implements Scheme via the table-driven fast path
// (fastpath.go). Decoding follows §6.1: each codeword is decoded
// independently; a DUE in any codeword discards the entry; the correction
// sanity check (when enabled) converts multi-codeword corrections that
// are not byte- or pin-local into a DUE.
func (b *Binary) DecodeWire(recv bitvec.V288) WireResult {
	return b.decodeWireFast(recv)
}

// DecodeWireRef implements RefDecoder: the original mask-fold decoder,
// kept as the differential-testing baseline for the fast path.
func (b *Binary) DecodeWireRef(recv bitvec.V288) WireResult {
	var flips [8]int // wire bits to correct (≤2 per codeword)
	nf := 0
	codewordsCorrecting := 0
	for c := 0; c < 4; c++ {
		s := b.syndrome(c, recv)
		if s == 0 {
			continue
		}
		if j := b.lutBit[s]; j >= 0 {
			flips[nf] = int(b.physOf[c][j])
			nf++
			codewordsCorrecting++
			continue
		}
		if b.correct2b {
			if sym := b.lutPair[s]; sym >= 0 {
				p := b.pairBits[sym]
				flips[nf] = int(b.physOf[c][p[0]])
				flips[nf+1] = int(b.physOf[c][p[1]])
				nf += 2
				codewordsCorrecting++
				continue
			}
		}
		return WireResult{Wire: recv, Status: ecc.Detected}
	}
	if nf == 0 {
		return WireResult{Wire: recv, Status: ecc.OK}
	}
	if b.csc && codewordsCorrecting > 1 && !cscAllows(flips[:nf]) {
		return WireResult{Wire: recv, Status: ecc.Detected}
	}
	for _, bit := range flips[:nf] {
		recv = recv.FlipBit(bit)
	}
	return WireResult{Wire: recv, Status: ecc.Corrected, CorrectedBits: nf}
}

// Decode implements Scheme.
func (b *Binary) Decode(recv bitvec.V288) DecodeResult { return decodeViaWire(b, recv) }

// Interleaved reports whether the scheme uses logical codeword interleaving.
func (b *Binary) Interleaved() bool { return b.interleaved }

// HasCSC reports whether the correction sanity check is enabled.
func (b *Binary) HasCSC() bool { return b.csc }

// Corrects2b reports whether aligned 2b-symbol correction is enabled.
func (b *Binary) Corrects2b() bool { return b.correct2b }

// Mode selects the behavior of the reconfigurable Duet/Trio decoder.
type Mode int

const (
	// ModeDuet prioritizes detection: interleaved SEC-DED + CSC.
	ModeDuet Mode = iota
	// ModeTrio prioritizes correction: interleaved SEC-2bEC + CSC.
	ModeTrio
)

func (m Mode) String() string {
	if m == ModeDuet {
		return "Duet"
	}
	return "Trio"
}

// Reconfigurable is the paper's combined DuetECC/TrioECC decoder (§6.3,
// Fig. 7b): one hardware structure, built around the SEC-2bEC parity-check
// matrix, whose output logic can run either in Duet (detection-oriented,
// 2b correction disabled) or Trio (correction-oriented) mode. The mode can
// be toggled per GPU or per CUDA context; here it is a field on the
// decoder. Note that Duet mode uses the SEC-2bEC matrix as a plain SEC-DED
// code — the searched code is constrained to permit exactly this fallback.
type Reconfigurable struct {
	duet *Binary
	trio *Binary
	mode Mode
}

// NewReconfigurable builds the combined decoder in Duet mode.
func NewReconfigurable() *Reconfigurable {
	h := sec2bec.New().H
	return &Reconfigurable{
		duet: newBinary("DuetECC(reconfig)", h, true, true, false),
		trio: newBinary("TrioECC(reconfig)", h, true, true, true),
	}
}

// SetMode switches between Duet and Trio behavior.
func (r *Reconfigurable) SetMode(m Mode) { r.mode = m }

// CurrentMode returns the active mode.
func (r *Reconfigurable) CurrentMode() Mode { return r.mode }

func (r *Reconfigurable) active() *Binary {
	if r.mode == ModeTrio {
		return r.trio
	}
	return r.duet
}

// Name implements Scheme.
func (r *Reconfigurable) Name() string {
	return fmt.Sprintf("Reconfigurable(%s)", r.mode)
}

// Encode implements Scheme. Both modes share one encoder.
func (r *Reconfigurable) Encode(data [bitvec.DataBytes]byte) bitvec.V288 {
	return r.duet.Encode(data)
}

// DecodeWire implements Scheme.
func (r *Reconfigurable) DecodeWire(recv bitvec.V288) WireResult {
	return r.active().DecodeWire(recv)
}

// Decode implements Scheme.
func (r *Reconfigurable) Decode(recv bitvec.V288) DecodeResult {
	return r.active().Decode(recv)
}

// ExtractData implements Scheme.
func (r *Reconfigurable) ExtractData(wire bitvec.V288) [bitvec.DataBytes]byte {
	return r.duet.ExtractData(wire)
}

// CorrectsPins implements Scheme.
func (r *Reconfigurable) CorrectsPins() bool { return true }
