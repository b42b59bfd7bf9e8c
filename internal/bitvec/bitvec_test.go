package bitvec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestV72BitSetFlip(t *testing.T) {
	var v V72
	for i := 0; i < BeatBits; i++ {
		if v.Bit(i) != 0 {
			t.Fatalf("zero value has bit %d set", i)
		}
		v = v.SetBit(i, 1)
		if v.Bit(i) != 1 {
			t.Fatalf("SetBit(%d,1) did not set", i)
		}
		v = v.FlipBit(i)
		if v.Bit(i) != 0 {
			t.Fatalf("FlipBit(%d) did not clear", i)
		}
	}
	if !v.IsZero() {
		t.Fatal("vector should be zero after set+flip of each bit")
	}
}

func TestV72OnesCountParity(t *testing.T) {
	var v V72
	for i := 0; i < BeatBits; i++ {
		v = v.SetBit(i, 1)
		if got := v.OnesCount(); got != i+1 {
			t.Fatalf("OnesCount after %d sets = %d", i+1, got)
		}
		if got := v.Parity(); got != uint(i+1)&1 {
			t.Fatalf("Parity after %d sets = %d", i+1, got)
		}
	}
}

func TestV72Bits(t *testing.T) {
	v := V72{}.SetBit(0, 1).SetBit(63, 1).SetBit(64, 1).SetBit(71, 1)
	want := []int{0, 63, 64, 71}
	got := v.Bits()
	if len(got) != len(want) {
		t.Fatalf("Bits() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Bits() = %v, want %v", got, want)
		}
	}
}

func TestV288BitRoundTrip(t *testing.T) {
	var v V288
	for i := 0; i < EntryBits; i++ {
		v = v.SetBit(i, 1)
		if v.Bit(i) != 1 {
			t.Fatalf("bit %d not set", i)
		}
	}
	if v.OnesCount() != EntryBits {
		t.Fatalf("OnesCount = %d, want %d", v.OnesCount(), EntryBits)
	}
	for i := 0; i < EntryBits; i++ {
		v = v.FlipBit(i)
	}
	if !v.IsZero() {
		t.Fatal("not zero after flipping all bits")
	}
}

func TestBeatRoundTripExhaustiveBitwise(t *testing.T) {
	// SetBeat/Beat must agree with the bit-index convention for every
	// single-bit pattern.
	for b := 0; b < Beats; b++ {
		for i := 0; i < BeatBits; i++ {
			var w V72
			w = w.SetBit(i, 1)
			var v V288
			v = v.SetBeat(b, w)
			if got := v.OnesCount(); got != 1 {
				t.Fatalf("beat %d bit %d: entry OnesCount=%d", b, i, got)
			}
			if v.Bit(b*BeatBits+i) != 1 {
				t.Fatalf("beat %d bit %d landed at %v", b, i, v.Bits())
			}
			if back := v.Beat(b); back != w {
				t.Fatalf("beat %d bit %d: round trip %v != %v", b, i, back, w)
			}
		}
	}
}

func TestBeatSetBeatProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(lo, hi uint64, bRaw uint8) bool {
		b := int(bRaw) % Beats
		w := V72FromUint64(lo, hi)
		var v V288
		// Start from random garbage to ensure SetBeat only touches its beat.
		for i := range v {
			v[i] = rng.Uint64()
		}
		orig := v
		v = v.SetBeat(b, w)
		if v.Beat(b) != w {
			return false
		}
		for ob := 0; ob < Beats; ob++ {
			if ob != b && v.Beat(ob) != orig.Beat(ob) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestByteBaseLayout(t *testing.T) {
	// Byte 8 of each beat must be the ECC byte (pins 64..71).
	for beat := 0; beat < Beats; beat++ {
		base := ByteBase(beat*BytesPer72 + 8)
		if base != beat*BeatBits+64 {
			t.Fatalf("ECC byte of beat %d at bit %d", beat, base)
		}
	}
	// ByteOfBit must invert ByteBase for every bit of every byte.
	for by := 0; by < EntryAlignedBytes; by++ {
		base := ByteBase(by)
		for k := 0; k < 8; k++ {
			if got := ByteOfBit(base + k); got != by {
				t.Fatalf("ByteOfBit(%d) = %d, want %d", base+k, got, by)
			}
		}
	}
}

func TestByteRoundTrip(t *testing.T) {
	var v V288
	for by := 0; by < EntryAlignedBytes; by++ {
		val := byte(by*7 + 13)
		v = v.SetByte(by, val)
		if got := v.Byte(by); got != val {
			t.Fatalf("byte %d: got %#x want %#x", by, got, val)
		}
	}
	// All bytes must still hold their values (no aliasing).
	for by := 0; by < EntryAlignedBytes; by++ {
		if got, want := v.Byte(by), byte(by*7+13); got != want {
			t.Fatalf("byte %d clobbered: got %#x want %#x", by, got, want)
		}
	}
}

func TestFromDataECCRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var data [DataBytes]byte
		var ecc [4]byte
		rng.Read(data[:])
		rng.Read(ecc[:])
		v := FromDataECC(data, ecc)
		d2, e2 := v.DataECC()
		return d2 == data && e2 == ecc
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDataWord(t *testing.T) {
	var data [DataBytes]byte
	for i := range data {
		data[i] = byte(i)
	}
	v := FromDataECC(data, [4]byte{})
	for b := 0; b < Beats; b++ {
		var want uint64
		for k := 0; k < 8; k++ {
			want |= uint64(data[b*8+k]) << uint(8*k)
		}
		if got := v.DataWord(b); got != want {
			t.Fatalf("word %d: got %#x want %#x", b, got, want)
		}
	}
}

func TestPinHelpers(t *testing.T) {
	for p := 0; p < Pins; p++ {
		for i, bit := range PinBits(p) {
			if PinOfBit(bit) != p {
				t.Fatalf("PinOfBit(PinBits(%d)[%d]) = %d", p, i, PinOfBit(bit))
			}
			if BeatOfBit(bit) != i {
				t.Fatalf("BeatOfBit(PinBits(%d)[%d]) = %d, want %d", p, i, BeatOfBit(bit), i)
			}
		}
	}
}

func TestWordOfBit(t *testing.T) {
	if WordOfBit(0) != 0 || WordOfBit(63) != 0 {
		t.Fatal("data bits of beat 0 must be word 0")
	}
	if WordOfBit(64) != -1 || WordOfBit(71) != -1 {
		t.Fatal("check bits must report word -1")
	}
	if WordOfBit(72) != 1 || WordOfBit(287-71+63) != 3 {
		t.Fatal("beat mapping wrong")
	}
}

func TestSameByteSamePinSameBeat(t *testing.T) {
	var zero V288
	if zero.SameByte() || zero.SamePin() || zero.SameBeat() {
		t.Fatal("zero vector must not report locality")
	}

	byteErr := V288{}.FlipBit(ByteBase(17)).FlipBit(ByteBase(17) + 7)
	if !byteErr.SameByte() {
		t.Fatal("two bits in byte 17 must be SameByte")
	}
	if !byteErr.SameBeat() {
		t.Fatal("a byte error is inside one beat")
	}

	pins := PinBits(41)
	pinErr := V288{}.FlipBit(pins[0]).FlipBit(pins[3])
	if !pinErr.SamePin() {
		t.Fatal("two bits on pin 41 must be SamePin")
	}
	if pinErr.SameBeat() {
		t.Fatal("a 2-beat pin error spans beats")
	}
	if pinErr.SameByte() {
		t.Fatal("a 2-beat pin error spans bytes")
	}

	spread := V288{}.FlipBit(0).FlipBit(100)
	if spread.SameByte() || spread.SamePin() || spread.SameBeat() {
		t.Fatal("spread error must not report locality")
	}
}

func TestXorAndProperties(t *testing.T) {
	f := func(a, b [5]uint64) bool {
		va, vb := V288(a), V288(b)
		x := va.Xor(vb)
		// XOR is its own inverse.
		if x.Xor(vb) != va {
			return false
		}
		// AND with self is identity on the valid bits.
		if got := va.And(va); got != va {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBeatExtract(b *testing.B) {
	var v V288
	for i := range v {
		v[i] = 0xDEADBEEFCAFEF00D
	}
	var sink V72
	for i := 0; i < b.N; i++ {
		sink = v.Beat(i & 3)
	}
	_ = sink
}

var sinkV288 V288

func BenchmarkFromDataECC(b *testing.B) {
	var data [DataBytes]byte
	for i := range data {
		data[i] = byte(i*17 + 3)
	}
	ecc := [4]byte{0x11, 0x22, 0x33, 0x44}
	for i := 0; i < b.N; i++ {
		data[0] = byte(i)
		sinkV288 = FromDataECC(data, ecc)
	}
}

var sinkData [DataBytes]byte

func BenchmarkDataECC(b *testing.B) {
	v := V288{0xDEADBEEFCAFEF00D, 0x0123456789ABCDEF, 0xFEDCBA9876543210, 0x55AA55AA55AA55AA, 0xC3C3C3C3}
	for i := 0; i < b.N; i++ {
		v[0] = uint64(i)
		sinkData, _ = v.DataECC()
	}
}
