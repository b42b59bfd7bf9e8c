package bitvec

import (
	"testing"
)

// The bit-at-a-time layout helpers below are the original definitions of
// the byte and beat maps, kept as the differential-testing baseline for
// the word-level implementations in bitvec.go.

func byteRef(v V288, i int) byte {
	base := ByteBase(i)
	var b byte
	for k := 0; k < 8; k++ {
		b |= byte(v.Bit(base+k)) << uint(k)
	}
	return b
}

func setByteRef(v V288, i int, val byte) V288 {
	base := ByteBase(i)
	for k := 0; k < 8; k++ {
		v = v.SetBit(base+k, uint(val>>uint(k))&1)
	}
	return v
}

func fromDataECCRef(data [DataBytes]byte, ecc [4]byte) V288 {
	var v V288
	for d, val := range data {
		v = setByteRef(v, (d/8)*BytesPer72+d%8, val)
	}
	for c, val := range ecc {
		v = setByteRef(v, c*BytesPer72+8, val)
	}
	return v
}

func dataECCRef(v V288) (data [DataBytes]byte, ecc [4]byte) {
	for d := range data {
		data[d] = byteRef(v, (d/8)*BytesPer72+d%8)
	}
	for c := range ecc {
		ecc[c] = byteRef(v, c*BytesPer72+8)
	}
	return data, ecc
}

func dataWordRef(v V288, b int) uint64 {
	var w uint64
	for i := 0; i < DataBits; i++ {
		w |= uint64(v.Bit(b*BeatBits+i)) << uint(i)
	}
	return w
}

// FuzzLayoutVsBitLoop requires the word-level byte and beat maps to agree
// with the bit-loop references on arbitrary entries: FromDataECC, DataECC,
// Byte and DataWord exactly, Beats and FromBeats with Beat and SetBeat,
// and SetByte on the whole packed array, so a write that disturbs a
// neighbouring byte (or the unused bits above bit 287) fails too.
func FuzzLayoutVsBitLoop(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), make([]byte, 36), uint8(0), byte(0))
	f.Add(^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), make([]byte, 36), uint8(35), byte(0x5A))
	ramp := make([]byte, 36)
	for i := range ramp {
		ramp[i] = byte(i*37 + 11)
	}
	f.Add(uint64(0xDEADBEEFCAFEF00D), uint64(0x0123456789ABCDEF), uint64(1), uint64(1)<<63, uint64(0xFFFFFFFF), ramp, uint8(17), byte(0xFF))
	f.Fuzz(func(t *testing.T, w0, w1, w2, w3, w4 uint64, raw []byte, idx uint8, val byte) {
		var data [DataBytes]byte
		var ecc [4]byte
		copy(data[:], raw)
		if len(raw) > DataBytes {
			copy(ecc[:], raw[DataBytes:])
		}
		if got, want := FromDataECC(data, ecc), fromDataECCRef(data, ecc); got != want {
			t.Fatalf("FromDataECC(%x, %x) = %v, bit loop %v", data, ecc, got, want)
		}

		v := V288{w0, w1, w2, w3, w4}
		gd, ge := v.DataECC()
		wd, we := dataECCRef(v)
		if gd != wd || ge != we {
			t.Fatalf("DataECC(%v) = %x/%x, bit loop %x/%x", v, gd, ge, wd, we)
		}
		for i := 0; i < EntryAlignedBytes; i++ {
			if got, want := v.Byte(i), byteRef(v, i); got != want {
				t.Fatalf("Byte(%d) of %v = %#x, bit loop %#x", i, v, got, want)
			}
		}
		b0, b1, b2, b3 := v.Beats()
		for b, got := range [Beats]V72{b0, b1, b2, b3} {
			if want := v.Beat(b); got != want {
				t.Fatalf("Beats() of %v: beat %d = %v, Beat %v", v, b, got, want)
			}
		}
		if got, want := FromBeats(b0, b1, b2, b3), (V288{}).SetBeat(0, b0).SetBeat(1, b1).SetBeat(2, b2).SetBeat(3, b3); got != want {
			t.Fatalf("FromBeats(%v) = %v, SetBeat %v", v, got, want)
		}
		for b := 0; b < Beats; b++ {
			if got, want := v.DataWord(b), dataWordRef(v, b); got != want {
				t.Fatalf("DataWord(%d) of %v = %#x, bit loop %#x", b, v, got, want)
			}
		}
		i := int(idx) % EntryAlignedBytes
		if got, want := v.SetByte(i, val), setByteRef(v, i, val); got != want {
			t.Fatalf("SetByte(%d, %#x) on %v = %v, bit loop %v", i, val, v, got, want)
		}
	})
}

// TestLayoutVsBitLoopExhaustiveBytes drives every aligned byte through
// every value on a dense and a sparse background.
func TestLayoutVsBitLoopExhaustiveBytes(t *testing.T) {
	for _, bg := range []V288{{}, {^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}} {
		for i := 0; i < EntryAlignedBytes; i++ {
			for val := 0; val < 256; val++ {
				got := bg.SetByte(i, byte(val))
				if want := setByteRef(bg, i, byte(val)); got != want {
					t.Fatalf("SetByte(%d, %#x) on %v = %v, bit loop %v", i, val, bg, got, want)
				}
				if b := got.Byte(i); b != byte(val) {
					t.Fatalf("Byte(%d) after SetByte(%#x) = %#x", i, val, b)
				}
			}
		}
	}
}
