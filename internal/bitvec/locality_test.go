package bitvec

import "testing"

// The Bits()-loop bodies below are the original definitions of the
// locality checks, kept as the differential-testing baseline for the
// mask-based SameByte, SamePin and SameBeat in bitvec.go.

func sameByteRef(v V288) bool {
	set := v.Bits()
	if len(set) == 0 {
		return false
	}
	b := ByteOfBit(set[0])
	for _, i := range set[1:] {
		if ByteOfBit(i) != b {
			return false
		}
	}
	return true
}

func samePinRef(v V288) bool {
	set := v.Bits()
	if len(set) == 0 {
		return false
	}
	p := PinOfBit(set[0])
	for _, i := range set[1:] {
		if PinOfBit(i) != p {
			return false
		}
	}
	return true
}

func sameBeatRef(v V288) bool {
	set := v.Bits()
	if len(set) == 0 {
		return false
	}
	b := BeatOfBit(set[0])
	for _, i := range set[1:] {
		if BeatOfBit(i) != b {
			return false
		}
	}
	return true
}

func checkLocality(t *testing.T, v V288) {
	t.Helper()
	if got, want := v.SameByte(), sameByteRef(v); got != want {
		t.Fatalf("SameByte(%v) = %v, bit loop %v", v, got, want)
	}
	if got, want := v.SamePin(), samePinRef(v); got != want {
		t.Fatalf("SamePin(%v) = %v, bit loop %v", v, got, want)
	}
	if got, want := v.SameBeat(), sameBeatRef(v); got != want {
		t.Fatalf("SameBeat(%v) = %v, bit loop %v", v, got, want)
	}
}

// FuzzLocalityVsBitLoop requires the mask-based locality checks to agree
// with the Bits() loops on two shapes of entry: the five fuzzed words as
// they are (dense, with arbitrary bits above bit 287), and a sparse entry
// of 1-4 fuzzed bit indices carrying the same garbage above bit 287.
// Dense words almost never fit one byte, pin or beat, so the sparse shape
// is what reaches the true cases.
func FuzzLocalityVsBitLoop(f *testing.F) {
	// The zero vector.
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint8(0), uint16(0), uint16(0), uint16(0), uint16(0))
	// A full byte (byte 0), and bits 0 and 7 of byte 9 (beat 1).
	f.Add(uint64(0xFF), uint64(0), uint64(0), uint64(0), uint64(0), uint8(1), uint16(72), uint16(79), uint16(0), uint16(0))
	// Pin 5 in all four beats.
	f.Add(uint64(1)<<5, uint64(1)<<13, uint64(1)<<21, uint64(1)<<29, uint64(0), uint8(3), uint16(5), uint16(77), uint16(149), uint16(221))
	// Beat 1 whole (bits 72..143), and its first and last bits.
	f.Add(uint64(0), uint64(0xFFFFFFFFFFFFFF00), uint64(0xFFFF), uint64(0), uint64(0), uint8(1), uint16(72), uint16(143), uint16(0), uint16(0))
	// Bit 287 plus garbage above it in v[4].
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0), uint64(0xDEADBEEF80000000), uint8(0), uint16(287), uint16(0), uint16(0), uint16(0))
	f.Fuzz(func(t *testing.T, w0, w1, w2, w3, w4 uint64, n uint8, i0, i1, i2, i3 uint16) {
		checkLocality(t, V288{w0, w1, w2, w3, w4})

		sparse := V288{4: w4 &^ v288TopMask}
		idx := [4]uint16{i0, i1, i2, i3}
		for _, i := range idx[:1+n%4] {
			sparse = sparse.SetBit(int(i)%EntryBits, 1)
		}
		checkLocality(t, sparse)
	})
}
