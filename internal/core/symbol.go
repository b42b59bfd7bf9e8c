package core

import (
	"hbm2ecc/internal/bitvec"
	"hbm2ecc/internal/ecc"
	"hbm2ecc/internal/gf256"
	"hbm2ecc/internal/rscode"
)

// symbolLayout maps Reed-Solomon symbol positions to wire bits. Entry
// [cw][pos][k] is the wire bit carrying bit k of symbol pos of codeword cw.
type symbolLayout [][][8]int16

// sscLayout builds the paper's interleaved SSC layout: 8b symbols span
// 4 pins × 2 beats. Pin group g (pins 4g..4g+3) and beat group h (beats
// 2h..2h+1) form a symbol assigned to codeword (g+h) mod 2 at position g.
// The checkerboard assignment puts the two symbols sharing a pin in
// different codewords (pin correction) and the two symbols sharing a
// physical byte in different codewords (byte correction). Pin groups 16
// and 17 are the ECC pins, landing at check positions 16 and 17.
func sscLayout() symbolLayout {
	l := make(symbolLayout, 2)
	for cw := range l {
		l[cw] = make([][8]int16, 18)
	}
	for g := 0; g < 18; g++ {
		for h := 0; h < 2; h++ {
			cw := (g + h) % 2
			var bits [8]int16
			k := 0
			for db := 0; db < 2; db++ { // beat within the beat group
				beat := 2*h + db
				for dp := 0; dp < 4; dp++ { // pin within the pin group
					pin := 4*g + dp
					bits[k] = int16(beat*bitvec.BeatBits + pin)
					k++
				}
			}
			l[cw][g] = bits
		}
	}
	return l
}

// dsdLayout builds the SSC-DSD+ layout: one (36,32) codeword whose 8b
// symbols are the 36 logical aligned bytes of the entry. Data symbol d is
// user data byte d; check symbols 32..35 are the four ECC bytes. Because a
// pin error touches one bit in up to four different bytes — four symbols
// of the SAME codeword — this layout cannot correct pin errors, only
// detect them (§6.2).
func dsdLayout() symbolLayout {
	l := make(symbolLayout, 1)
	l[0] = make([][8]int16, 36)
	for d := 0; d < 32; d++ {
		base := bitvec.ByteBase((d/8)*bitvec.BytesPer72 + d%8)
		for k := 0; k < 8; k++ {
			l[0][d][k] = int16(base + k)
		}
	}
	for c := 0; c < 4; c++ {
		base := bitvec.ByteBase(c*bitvec.BytesPer72 + 8)
		for k := 0; k < 8; k++ {
			l[0][32+c][k] = int16(base + k)
		}
	}
	return l
}

// Symbol is an entry-level scheme built from Reed-Solomon codewords.
type Symbol struct {
	name    string
	rs      *rscode.Code
	layout  symbolLayout
	csc     bool
	dsdPlus bool
	// boundedT > 0 selects classic bounded-distance decoding with up to
	// boundedT symbol corrections (the DSC organization the paper
	// rejects for latency, kept for design-space ablation).
	boundedT int
	pinOK    bool

	// fast holds the table-driven decode path (fastpath.go).
	fast symFast
	// ecc is the linear check-byte table (linear.go).
	ecc eccTab
}

// NewSSC builds the interleaved (18,16)×2 single-symbol-correct scheme,
// optionally with the correction sanity check.
func NewSSC(csc bool) *Symbol {
	rs, err := rscode.New(gf256.Default(), 18, 16)
	if err != nil {
		panic("core: (18,16) RS construction failed: " + err.Error())
	}
	name := "I:SSC"
	if csc {
		name = "I:SSC+CSC"
	}
	s := &Symbol{name: name, rs: rs, layout: sscLayout(), csc: csc, pinOK: true}
	s.buildFast()
	s.buildLinear()
	return s
}

// NewSSCDSDPlus builds the paper's SSC-DSD+ scheme: a single (36,32)
// codeword with triple-vote one-shot decoding.
func NewSSCDSDPlus() *Symbol {
	rs, err := rscode.New(gf256.Default(), 36, 32)
	if err != nil {
		panic("core: (36,32) RS construction failed: " + err.Error())
	}
	s := &Symbol{name: "SSC-DSD+", rs: rs, layout: dsdLayout(), dsdPlus: true}
	s.buildFast()
	s.buildLinear()
	return s
}

// NewDSC builds the (36,32) double-symbol-correct organization the paper
// rejects for GPU DRAM (§6.2): it corrects any two symbol errors via
// iterative algebraic decoding (>= 8 cycles, see
// hwmodel.IterativeDecoderCycles) and is included only so the design-space
// trade-off can be reproduced.
func NewDSC() *Symbol {
	rs, err := rscode.New(gf256.Default(), 36, 32)
	if err != nil {
		panic("core: (36,32) RS construction failed: " + err.Error())
	}
	s := &Symbol{name: "DSC", rs: rs, layout: dsdLayout(), boundedT: 2}
	s.buildFast()
	s.buildLinear()
	return s
}

// NewSSCTSD builds the (36,32) single-symbol-correct triple-symbol-detect
// organization — the other §6.2 alternative rejected for iterative-decoder
// latency. Bounded-distance decoding with t=1 on four check symbols
// corrects one symbol and detects two or three.
func NewSSCTSD() *Symbol {
	rs, err := rscode.New(gf256.Default(), 36, 32)
	if err != nil {
		panic("core: (36,32) RS construction failed: " + err.Error())
	}
	s := &Symbol{name: "SSC-TSD", rs: rs, layout: dsdLayout(), boundedT: 1}
	s.buildFast()
	s.buildLinear()
	return s
}

// Name implements Scheme.
func (s *Symbol) Name() string { return s.name }

// CorrectsPins implements Scheme.
func (s *Symbol) CorrectsPins() bool { return s.pinOK }

// gatherSymbols extracts codeword cw's symbols from the wire.
func (s *Symbol) gatherSymbols(cw int, wire bitvec.V288, out []uint8) {
	for pos, bits := range s.layout[cw] {
		var v uint8
		for k := 0; k < 8; k++ {
			v |= uint8(wire.Bit(int(bits[k]))) << uint(k)
		}
		out[pos] = v
	}
}

// scatterSymbol writes one symbol value back to the wire.
func (s *Symbol) scatterSymbol(cw, pos int, v uint8, wire bitvec.V288) bitvec.V288 {
	bits := &s.layout[cw][pos]
	for k := 0; k < 8; k++ {
		wire = wire.SetBit(int(bits[k]), uint(v>>uint(k))&1)
	}
	return wire
}

// Encode implements Scheme. User data byte ordering follows the layouts:
// for SSC-DSD+ data symbol d is user byte d; for I:SSC, user data bytes
// are placed at their standard wire positions (FromDataECC layout) and the
// codeword data symbols are the 4-pin×2-beat regroupings of those bits.
// Every check symbol sits on the ECC pins, so the ECC bytes come from
// the linear check-byte table (linear.go).
func (s *Symbol) Encode(data [bitvec.DataBytes]byte) bitvec.V288 {
	return bitvec.FromDataECC(data, s.ecc.ecc(&data))
}

// ExtractData implements Scheme: user data occupies the standard wire
// layout for every symbol scheme.
func (s *Symbol) ExtractData(wire bitvec.V288) [bitvec.DataBytes]byte {
	data, _ := wire.DataECC()
	return data
}

// DecodeWire implements Scheme via the table-driven fast path
// (fastpath.go). The bounded-distance ablation organizations have no
// table path and use the reference decoder.
func (s *Symbol) DecodeWire(recv bitvec.V288) WireResult {
	if s.boundedT > 0 {
		return s.decodeBounded(recv)
	}
	if s.dsdPlus {
		return s.decodeDSDPlusFast(recv)
	}
	return s.decodeSSCFast(recv)
}

// DecodeWireRef implements RefDecoder: the original gather-and-multiply
// decoder, kept as the differential-testing baseline for the fast path.
func (s *Symbol) DecodeWireRef(recv bitvec.V288) WireResult {
	if s.boundedT > 0 {
		return s.decodeBounded(recv)
	}
	if s.dsdPlus {
		return s.decodeDSDPlus(recv)
	}
	return s.decodeSSC(recv)
}

func (s *Symbol) decodeBounded(recv bitvec.V288) WireResult {
	var buf [36]uint8
	s.gatherSymbols(0, recv, buf[:])
	before := buf
	r := s.rs.DecodeBounded(buf[:], s.boundedT)
	switch r.Status {
	case ecc.Detected:
		return WireResult{Wire: recv, Status: ecc.Detected}
	case ecc.OK:
		return WireResult{Wire: recv, Status: ecc.OK}
	}
	corrected := 0
	for pos := 0; pos < 36; pos++ {
		diff := before[pos] ^ buf[pos]
		if diff == 0 {
			continue
		}
		bits := &s.layout[0][pos]
		for k := 0; k < 8; k++ {
			if diff>>uint(k)&1 != 0 {
				recv = recv.FlipBit(int(bits[k]))
				corrected++
			}
		}
	}
	return WireResult{Wire: recv, Status: ecc.Corrected, CorrectedBits: corrected}
}

func (s *Symbol) decodeSSC(recv bitvec.V288) WireResult {
	var bufs [2][18]uint8
	var results [2]rscode.Result
	correcting := 0
	for cw := 0; cw < 2; cw++ {
		s.gatherSymbols(cw, recv, bufs[cw][:])
		results[cw] = s.rs.DecodeSSC(bufs[cw][:])
		switch results[cw].Status {
		case ecc.Detected:
			return WireResult{Wire: recv, Status: ecc.Detected}
		case ecc.Corrected:
			correcting++
		}
	}
	return s.applySSC(recv, &results, correcting)
}

// applySSC is the shared tail of the reference and fast SSC decoders:
// the correction sanity check on the actual corrected wire bits, then
// the wire update.
func (s *Symbol) applySSC(recv bitvec.V288, results *[2]rscode.Result, correcting int) WireResult {
	if correcting == 0 {
		return WireResult{Wire: recv, Status: ecc.OK}
	}
	var flips []int
	for cw := 0; cw < 2; cw++ {
		r := results[cw]
		if r.Status != ecc.Corrected {
			continue
		}
		bits := &s.layout[cw][r.Pos]
		for k := 0; k < 8; k++ {
			if r.Value>>uint(k)&1 != 0 {
				flips = append(flips, int(bits[k]))
			}
		}
	}
	if s.csc && correcting > 1 && !cscAllows(flips) {
		return WireResult{Wire: recv, Status: ecc.Detected}
	}
	for _, bit := range flips {
		recv = recv.FlipBit(bit)
	}
	return WireResult{Wire: recv, Status: ecc.Corrected, CorrectedBits: len(flips)}
}

func (s *Symbol) decodeDSDPlus(recv bitvec.V288) WireResult {
	var buf [36]uint8
	s.gatherSymbols(0, recv, buf[:])
	return s.applyDSDPlus(recv, s.rs.DecodeSSCDSDPlus(buf[:]))
}

// applyDSDPlus is the shared tail of the reference and fast SSC-DSD+
// decoders: it scatters the corrected symbol back onto the wire.
func (s *Symbol) applyDSDPlus(recv bitvec.V288, r rscode.Result) WireResult {
	switch r.Status {
	case ecc.Detected:
		return WireResult{Wire: recv, Status: ecc.Detected}
	case ecc.OK:
		return WireResult{Wire: recv, Status: ecc.OK}
	}
	corrected := 0
	bits := &s.layout[0][r.Pos]
	for k := 0; k < 8; k++ {
		if r.Value>>uint(k)&1 != 0 {
			recv = recv.FlipBit(int(bits[k]))
			corrected++
		}
	}
	return WireResult{Wire: recv, Status: ecc.Corrected, CorrectedBits: corrected}
}

// Decode implements Scheme.
func (s *Symbol) Decode(recv bitvec.V288) DecodeResult { return decodeViaWire(s, recv) }
