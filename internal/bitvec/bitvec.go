// Package bitvec provides fixed-width bit vectors sized for HBM2 ECC work.
//
// The paper's unit of protection is a 36B memory entry: 32B of data plus 4B
// of ECC check bits, transmitted over 72 pins (64 data + 8 ECC) in 4 beats.
// This package supplies a 72-bit vector (one beat / one binary codeword) and
// a 288-bit vector (one whole entry), along with the index conventions used
// throughout the repository:
//
//   - Entry bit i lives on pin i%72 during beat i/72.
//   - Beat b occupies entry bits [72b, 72b+72).
//   - Within a beat, bits 0..63 are the 64 data pins (one 64b "word" in the
//     paper's terminology) and bits 64..71 are the 8 ECC pins.
//   - Physical aligned byte B (0..35) occupies bits [72*(B/9)+8*(B%9), +8).
package bitvec

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Entry and beat geometry constants shared by the whole repository.
const (
	BeatBits          = 72  // bits per beat (64 data + 8 check)
	DataBits          = 64  // data bits per beat
	CheckBits         = 8   // check bits per beat
	Beats             = 4   // beats per entry
	EntryBits         = 288 // bits per entry (4 beats x 72 bits)
	EntryBytes        = 36  // 32B data + 4B ECC
	DataBytes         = 32  // user data bytes per entry
	BytesPer72        = 9   // aligned bytes per beat
	EntryAlignedBytes = 36
	Pins              = 72 // data+check pins on a pseudo-channel
)

// V72 is a 72-bit vector: one DRAM beat, or one (72,64) binary codeword.
// Bit 0 is the least-significant bit of Lo; bits 64..71 are the low 8 bits
// of Hi. The zero value is the all-zero vector, ready to use.
type V72 struct {
	Lo uint64 // bits 0..63
	Hi uint64 // bits 64..71 (upper 56 bits must stay zero)
}

const hiMask = 0xFF // valid bits of V72.Hi

// Bit reports bit i (0..71).
func (v V72) Bit(i int) uint {
	if i < 64 {
		return uint(v.Lo>>uint(i)) & 1
	}
	return uint(v.Hi>>uint(i-64)) & 1
}

// SetBit returns v with bit i set to b (0 or 1).
func (v V72) SetBit(i int, b uint) V72 {
	if i < 64 {
		v.Lo = v.Lo&^(1<<uint(i)) | uint64(b&1)<<uint(i)
	} else {
		v.Hi = v.Hi&^(1<<uint(i-64)) | uint64(b&1)<<uint(i-64)
	}
	return v
}

// FlipBit returns v with bit i inverted.
func (v V72) FlipBit(i int) V72 {
	if i < 64 {
		v.Lo ^= 1 << uint(i)
	} else {
		v.Hi ^= 1 << uint(i-64)
	}
	return v
}

// Xor returns the bitwise XOR of v and w.
func (v V72) Xor(w V72) V72 { return V72{v.Lo ^ w.Lo, v.Hi ^ w.Hi} }

// And returns the bitwise AND of v and w.
func (v V72) And(w V72) V72 { return V72{v.Lo & w.Lo, v.Hi & w.Hi} }

// Or returns the bitwise OR of v and w.
func (v V72) Or(w V72) V72 { return V72{v.Lo | w.Lo, v.Hi | w.Hi} }

// IsZero reports whether every bit is zero.
func (v V72) IsZero() bool { return v.Lo == 0 && v.Hi&hiMask == 0 }

// OnesCount returns the number of set bits.
func (v V72) OnesCount() int {
	return bits.OnesCount64(v.Lo) + bits.OnesCount64(v.Hi&hiMask)
}

// Parity returns the XOR of all 72 bits.
func (v V72) Parity() uint {
	return uint(bits.OnesCount64(v.Lo)+bits.OnesCount64(v.Hi&hiMask)) & 1
}

// Bits returns the indices of all set bits in ascending order.
func (v V72) Bits() []int {
	out := make([]int, 0, v.OnesCount())
	lo := v.Lo
	for lo != 0 {
		out = append(out, bits.TrailingZeros64(lo))
		lo &= lo - 1
	}
	hi := v.Hi & hiMask
	for hi != 0 {
		out = append(out, 64+bits.TrailingZeros64(hi))
		hi &= hi - 1
	}
	return out
}

// String renders the vector as 18 hex digits, most-significant first.
func (v V72) String() string { return fmt.Sprintf("%02x%016x", v.Hi&hiMask, v.Lo) }

// V288 is a 288-bit vector: one whole 36B memory entry on the wire.
// Word i holds entry bits [64i, 64i+64); word 4 uses only its low 32 bits.
type V288 [5]uint64

const v288TopMask = 0xFFFFFFFF // valid bits of V288[4]

// Bit reports bit i (0..287).
func (v V288) Bit(i int) uint { return uint(v[i>>6]>>uint(i&63)) & 1 }

// SetBit returns v with bit i set to b.
func (v V288) SetBit(i int, b uint) V288 {
	v[i>>6] = v[i>>6]&^(1<<uint(i&63)) | uint64(b&1)<<uint(i&63)
	return v
}

// FlipBit returns v with bit i inverted.
func (v V288) FlipBit(i int) V288 {
	v[i>>6] ^= 1 << uint(i&63)
	return v
}

// Xor returns the bitwise XOR of v and w.
func (v V288) Xor(w V288) V288 {
	for i := range v {
		v[i] ^= w[i]
	}
	return v
}

// And returns the bitwise AND of v and w.
func (v V288) And(w V288) V288 {
	for i := range v {
		v[i] &= w[i]
	}
	return v
}

// Or returns the bitwise OR of v and w.
func (v V288) Or(w V288) V288 {
	for i := range v {
		v[i] |= w[i]
	}
	return v
}

// IsZero reports whether every bit is zero.
func (v V288) IsZero() bool {
	return v[0] == 0 && v[1] == 0 && v[2] == 0 && v[3] == 0 && v[4]&v288TopMask == 0
}

// OnesCount returns the number of set bits.
func (v V288) OnesCount() int {
	n := 0
	for i := 0; i < 4; i++ {
		n += bits.OnesCount64(v[i])
	}
	return n + bits.OnesCount64(v[4]&v288TopMask)
}

// Bits returns the indices of all set bits in ascending order.
func (v V288) Bits() []int {
	out := make([]int, 0, v.OnesCount())
	for w := 0; w < 5; w++ {
		word := v[w]
		if w == 4 {
			word &= v288TopMask
		}
		for word != 0 {
			out = append(out, w*64+bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
	return out
}

// Beat extracts beat b (0..3) as a V72. Beats start at bit offsets 0, 72,
// 144 and 216, i.e. word w=b, shift s=8b into the packed uint64 array.
func (v V288) Beat(b int) V72 {
	switch b {
	case 0:
		return V72{Lo: v[0], Hi: v[1] & hiMask}
	case 1:
		return V72{Lo: v[1]>>8 | v[2]<<56, Hi: (v[2] >> 8) & hiMask}
	case 2:
		return V72{Lo: v[2]>>16 | v[3]<<48, Hi: (v[3] >> 16) & hiMask}
	default:
		return V72{Lo: v[3]>>24 | v[4]<<40, Hi: (v[4] >> 24) & hiMask}
	}
}

// SetBeat returns v with beat b replaced by w.
func (v V288) SetBeat(b int, w V72) V288 {
	w.Hi &= hiMask
	switch b {
	case 0:
		v[0] = w.Lo
		v[1] = v[1]&^uint64(hiMask) | w.Hi
	case 1:
		v[1] = v[1]&hiMask | w.Lo<<8
		v[2] = v[2]&^uint64(0xFFFF) | w.Lo>>56 | w.Hi<<8
	case 2:
		v[2] = v[2]&0xFFFF | w.Lo<<16
		v[3] = v[3]&^uint64(0xFFFFFF) | w.Lo>>48 | w.Hi<<16
	default:
		v[3] = v[3]&0xFFFFFF | w.Lo<<24
		v[4] = v[4]&^uint64(0xFFFFFFFF) | w.Lo>>40 | w.Hi<<24
	}
	return v
}

// Byte extracts aligned byte i (0..35) from the entry. A beat starts at
// bit 72b ≡ 8b (mod 64), so every aligned byte starts at a multiple of 8
// within one packed word and never straddles two: one shift reads it.
func (v V288) Byte(i int) byte {
	base := ByteBase(i)
	return byte(v[base>>6] >> uint(base&63))
}

// SetByte returns v with aligned byte i replaced.
func (v V288) SetByte(i int, val byte) V288 {
	base := ByteBase(i)
	s := uint(base & 63)
	v[base>>6] = v[base>>6]&^(0xFF<<s) | uint64(val)<<s
	return v
}

// ByteBase returns the entry-bit index of the first bit of aligned byte i.
// Bytes 0..8 of beat 0 are followed by bytes 9..17 of beat 1, and so on;
// the 9th byte of each beat (i%9 == 8) is that beat's ECC byte.
func ByteBase(i int) int { return (i/BytesPer72)*BeatBits + (i%BytesPer72)*8 }

// ByteOfBit returns the aligned-byte index containing entry bit i.
func ByteOfBit(i int) int { return (i/BeatBits)*BytesPer72 + (i%BeatBits)/8 }

// PinOfBit returns the pin (0..71) carrying entry bit i.
func PinOfBit(i int) int { return i % BeatBits }

// BeatOfBit returns the beat (0..3) carrying entry bit i.
func BeatOfBit(i int) int { return i / BeatBits }

// PinBits returns the four entry-bit indices carried on pin p.
func PinBits(p int) [4]int {
	return [4]int{p, BeatBits + p, 2*BeatBits + p, 3*BeatBits + p}
}

// WordOfBit returns the 64b data-word index (0..3) of entry bit i, or -1 if
// the bit is a check bit (pins 64..71).
func WordOfBit(i int) int {
	if i%BeatBits >= DataBits {
		return -1
	}
	return i / BeatBits
}

// FromBeats packs four beats into an entry, beat b at bits [72b, 72b+72)
// exactly as SetBeat places it.
func FromBeats(b0, b1, b2, b3 V72) V288 {
	return V288{
		b0.Lo,
		b0.Hi&hiMask | b1.Lo<<8,
		b1.Lo>>56 | (b1.Hi&hiMask)<<8 | b2.Lo<<16,
		b2.Lo>>48 | (b2.Hi&hiMask)<<16 | b3.Lo<<24,
		b3.Lo>>40 | (b3.Hi&hiMask)<<24,
	}
}

// FromDataECC assembles an entry from 32B of data and 4B of check bytes.
// Data byte d lands in beat d/8 at in-beat byte d%8; check byte c lands in
// beat c as the beat's 9th byte (pins 64..71). Each beat's data pins are
// therefore the little-endian 64b word data[8b:8b+8].
func FromDataECC(data [DataBytes]byte, ecc [4]byte) V288 {
	beat := func(b int) V72 {
		return V72{Lo: binary.LittleEndian.Uint64(data[8*b:]), Hi: uint64(ecc[b])}
	}
	return FromBeats(beat(0), beat(1), beat(2), beat(3))
}

// Beats splits an entry into its four beats, inverting FromBeats.
func (v V288) Beats() (b0, b1, b2, b3 V72) {
	return V72{Lo: v[0], Hi: v[1] & hiMask},
		V72{Lo: v[1]>>8 | v[2]<<56, Hi: (v[2] >> 8) & hiMask},
		V72{Lo: v[2]>>16 | v[3]<<48, Hi: (v[3] >> 16) & hiMask},
		V72{Lo: v[3]>>24 | v[4]<<40, Hi: (v[4] >> 24) & hiMask}
}

// DataECC splits an entry back into 32B of data and 4B of check bytes,
// inverting FromDataECC.
func (v V288) DataECC() (data [DataBytes]byte, ecc [4]byte) {
	b0, b1, b2, b3 := v.Beats()
	for i, b := range [4]V72{b0, b1, b2, b3} {
		binary.LittleEndian.PutUint64(data[8*i:], b.Lo)
		ecc[i] = byte(b.Hi)
	}
	return data, ecc
}

// DataWord returns the 64b data word of beat b (pins 0..63).
func (v V288) DataWord(b int) uint64 { return v.Beat(b).Lo }

// Locality masks for SameByte, SamePin and SameBeat: byteMasks[B] holds
// the 8 bits of aligned byte B, pinMasks[p] the 4 bits on pin p, and
// beatMasks[b] the 72 bits of beat b. Built once from ByteOfBit, PinOfBit
// and BeatOfBit, so each check is one lowest-bit lookup and one mask test
// on the packed words; nothing allocates on the per-trial Classify path.
var (
	byteMasks [EntryAlignedBytes]V288
	pinMasks  [Pins]V288
	beatMasks [Beats]V288
)

func init() {
	for i := 0; i < EntryBits; i++ {
		byteMasks[ByteOfBit(i)] = byteMasks[ByteOfBit(i)].FlipBit(i)
		pinMasks[PinOfBit(i)] = pinMasks[PinOfBit(i)].FlipBit(i)
		beatMasks[BeatOfBit(i)] = beatMasks[BeatOfBit(i)].FlipBit(i)
	}
}

// lowestBit returns the index of the lowest set bit of v, or -1 if v is
// zero. Bits above bit 287 are ignored.
func (v V288) lowestBit() int {
	for w := 0; w < 4; w++ {
		if v[w] != 0 {
			return w*64 + bits.TrailingZeros64(v[w])
		}
	}
	if top := v[4] & v288TopMask; top != 0 {
		return 256 + bits.TrailingZeros64(top)
	}
	return -1
}

// within reports whether every set bit of v (bits above 287 ignored) is
// also set in m.
func (v V288) within(m V288) bool {
	return v[0]&^m[0]|v[1]&^m[1]|v[2]&^m[2]|v[3]&^m[3]|v[4]&v288TopMask&^m[4] == 0
}

// SameByte reports whether all set bits of v lie in one aligned byte.
// The zero vector reports false.
func (v V288) SameByte() bool {
	i := v.lowestBit()
	return i >= 0 && v.within(byteMasks[ByteOfBit(i)])
}

// SamePin reports whether all set bits of v lie on one pin.
// The zero vector reports false.
func (v V288) SamePin() bool {
	i := v.lowestBit()
	return i >= 0 && v.within(pinMasks[PinOfBit(i)])
}

// SameBeat reports whether all set bits of v lie in one beat.
// The zero vector reports false.
func (v V288) SameBeat() bool {
	i := v.lowestBit()
	return i >= 0 && v.within(beatMasks[BeatOfBit(i)])
}

// V72FromUint64 builds a V72 whose low 64 bits are lo and whose bits 64..71
// are the low 8 bits of hi.
func V72FromUint64(lo, hi uint64) V72 { return V72{Lo: lo, Hi: hi & hiMask} }
