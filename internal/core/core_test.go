package core

import (
	"math/rand"
	"testing"

	"hbm2ecc/internal/bitvec"
	"hbm2ecc/internal/ecc"
)

// allSchemes returns one instance of every Table-2 organization.
func allSchemes() []Scheme {
	return []Scheme{
		NewSECDED(false, false), // NI:SEC-DED (baseline)
		NewSECDED(true, false),  // I:SEC-DED
		NewDuetECC(),            // I:SEC-DED+CSC
		NewSEC2bEC(false, false),
		NewSEC2bEC(true, false),
		NewTrioECC(),
		NewSSC(false),
		NewSSC(true),
		NewSSCDSDPlus(),
	}
}

func randomData(rng *rand.Rand) [bitvec.DataBytes]byte {
	var d [bitvec.DataBytes]byte
	rng.Read(d[:])
	return d
}

// TestEncodeDecodeRoundTrip covers every registered scheme: gpusim's
// read of a pristine entry returns the written payload without decoding
// it, which is exact only because a clean codeword decodes to its own
// data with status OK.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, name := range SchemeNames() {
		s, err := SchemeByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 50; trial++ {
			data := randomData(rng)
			wire := s.Encode(data)
			if got := s.ExtractData(wire); got != data {
				t.Fatalf("%s: ExtractData(Encode(d)) != d", s.Name())
			}
			res := s.Decode(wire)
			if res.Status != ecc.OK || res.Data != data || res.CorrectedBits != 0 {
				t.Fatalf("%s: clean decode %+v", s.Name(), res)
			}
		}
	}
}

// TestDecodePayloadInvariance covers every registered scheme: an XOR
// error pattern decodes to the same status whatever the payload, and
// unless the read is Detected to the same data error. The workload
// campaign decides runs from one decode of Encode(0)^x per corrupted
// entry on the strength of it. Patterns have 1 to 40 random wire bits,
// and every fourth is a dense random entry, as whole-entry logic faults
// produce.
func TestDecodePayloadInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, name := range SchemeNames() {
		s, err := SchemeByName(name)
		if err != nil {
			t.Fatal(err)
		}
		zero := s.Encode([bitvec.DataBytes]byte{})
		for trial := 0; trial < 4000; trial++ {
			var x bitvec.V288
			if trial%4 == 3 {
				for b := 0; b < bitvec.EntryBits; b++ {
					if rng.Intn(2) == 1 {
						x = x.FlipBit(b)
					}
				}
			} else {
				for n := 1 + rng.Intn(40); n > 0; n-- {
					x = x.FlipBit(rng.Intn(bitvec.EntryBits))
				}
			}
			p := randomData(rng)
			want := s.Decode(zero.Xor(x))
			got := s.Decode(s.Encode(p).Xor(x))
			if got.Status != want.Status {
				t.Fatalf("%s: status %v with a random payload, %v with zero (pattern %v)",
					name, got.Status, want.Status, x)
			}
			if got.Status == ecc.Detected {
				continue
			}
			for i := range p {
				if got.Data[i]^p[i] != want.Data[i] {
					t.Fatalf("%s: data error differs from the zero payload's (pattern %v)", name, x)
				}
			}
		}
	}
}

func TestAllSingleBitErrorsCorrected(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, s := range allSchemes() {
		data := randomData(rng)
		wire := s.Encode(data)
		for bit := 0; bit < bitvec.EntryBits; bit++ {
			res := s.Decode(wire.FlipBit(bit))
			if res.Status != ecc.Corrected || res.Data != data {
				t.Fatalf("%s: single bit %d -> %v (data ok=%v)",
					s.Name(), bit, res.Status, res.Data == data)
			}
		}
	}
}

func TestPinErrors(t *testing.T) {
	// Every scheme except SSC-DSD+ must correct every pin error; SSC-DSD+
	// must detect every one (it trades pin correction away, §6.2).
	rng := rand.New(rand.NewSource(3))
	for _, s := range allSchemes() {
		data := randomData(rng)
		wire := s.Encode(data)
		for pin := 0; pin < bitvec.Pins; pin++ {
			bitsOnPin := bitvec.PinBits(pin)
			// All subsets with >= 2 bits.
			for mask := 1; mask < 16; mask++ {
				nbits := 0
				bad := wire
				for b := 0; b < 4; b++ {
					if mask>>uint(b)&1 != 0 {
						bad = bad.FlipBit(bitsOnPin[b])
						nbits++
					}
				}
				if nbits < 2 {
					continue
				}
				res := s.Decode(bad)
				if s.CorrectsPins() {
					if res.Status != ecc.Corrected || res.Data != data {
						t.Fatalf("%s: pin %d mask %04b -> %v", s.Name(), pin, mask, res.Status)
					}
				} else {
					if res.Status != ecc.Detected {
						t.Fatalf("%s: pin %d mask %04b -> %v (want DUE)", s.Name(), pin, mask, res.Status)
					}
				}
			}
		}
	}
}

// byteErrorOutcomes counts outcomes over every aligned byte error (36
// bytes × 247 patterns with >= 2 bits).
func byteErrorOutcomes(t *testing.T, s Scheme, rng *rand.Rand) (dce, due, sdc int) {
	t.Helper()
	data := randomData(rng)
	wire := s.Encode(data)
	for by := 0; by < bitvec.EntryAlignedBytes; by++ {
		base := bitvec.ByteBase(by)
		for pat := 1; pat < 256; pat++ {
			nbits := 0
			bad := wire
			for k := 0; k < 8; k++ {
				if pat>>uint(k)&1 != 0 {
					bad = bad.FlipBit(base + k)
					nbits++
				}
			}
			if nbits < 2 {
				continue
			}
			res := s.Decode(bad)
			switch ecc.Classify(res.Status, res.Data == data, true) {
			case ecc.DCE:
				dce++
			case ecc.DUE:
				due++
			default:
				sdc++
			}
		}
	}
	return dce, due, sdc
}

func TestByteErrorsTrioAndSSCFullCorrection(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, s := range []Scheme{NewTrioECC(), NewSSC(false), NewSSC(true), NewSSCDSDPlus()} {
		dce, due, sdc := byteErrorOutcomes(t, s, rng)
		if sdc != 0 || due != 0 {
			t.Fatalf("%s: byte errors dce=%d due=%d sdc=%d (want all corrected)",
				s.Name(), dce, due, sdc)
		}
	}
}

func TestByteErrorsDuetAllDetectedOrCorrected(t *testing.T) {
	// DuetECC detects all byte errors and corrects those confined to one
	// bit per codeword (half-byte patterns). No SDC ever.
	rng := rand.New(rand.NewSource(5))
	dce, due, sdc := byteErrorOutcomes(t, NewDuetECC(), rng)
	if sdc != 0 {
		t.Fatalf("DuetECC: %d byte-error SDCs (must be 0)", sdc)
	}
	if dce == 0 || due == 0 {
		t.Fatalf("DuetECC: expected a mix of DCE (%d) and DUE (%d)", dce, due)
	}
}

func TestByteErrorsBaselineHasSDC(t *testing.T) {
	// The NI:SEC-DED baseline fails to correct or detect a sizeable
	// fraction of byte errors (the paper reports 23–29% across byte/beat
	// severities) — the motivating weakness.
	rng := rand.New(rand.NewSource(6))
	dce, due, sdc := byteErrorOutcomes(t, NewSECDED(false, false), rng)
	total := dce + due + sdc
	frac := float64(sdc) / float64(total)
	if frac < 0.05 || frac > 0.5 {
		t.Fatalf("NI:SEC-DED byte-error SDC fraction %.3f out of expected band", frac)
	}
}

func TestHalfByteCorrectionWithInterleaving(t *testing.T) {
	// Interleaved SEC-DED corrects any error within an aligned half-byte
	// (one bit lands in each codeword).
	rng := rand.New(rand.NewSource(7))
	s := NewSECDED(true, false)
	data := randomData(rng)
	wire := s.Encode(data)
	for by := 0; by < bitvec.EntryAlignedBytes; by++ {
		base := bitvec.ByteBase(by)
		for half := 0; half < 2; half++ {
			for pat := 1; pat < 16; pat++ {
				bad := wire
				for k := 0; k < 4; k++ {
					if pat>>uint(k)&1 != 0 {
						bad = bad.FlipBit(base + half*4 + k)
					}
				}
				res := s.Decode(bad)
				if res.Data != data || res.Status == ecc.Detected {
					t.Fatalf("half-byte error byte=%d half=%d pat=%04b: %v",
						by, half, pat, res.Status)
				}
			}
		}
	}
}

func TestCSCConvertsSuspiciousCorrectionsToDUE(t *testing.T) {
	// Two single-bit corrections in different codewords that are neither
	// byte- nor pin-local: I:SEC-DED corrects opportunistically, DuetECC
	// raises a DUE.
	noCSC := NewSECDED(true, false)
	duet := NewDuetECC()
	var data [bitvec.DataBytes]byte
	wire := noCSC.Encode(data)

	// Find two wire bits in different codewords, bytes, and pins.
	b1 := 0
	b2 := -1
	for bit := 1; bit < bitvec.EntryBits; bit++ {
		if codewordOfWireBit(noCSC, bit) != codewordOfWireBit(noCSC, b1) &&
			bitvec.ByteOfBit(bit) != bitvec.ByteOfBit(b1) &&
			bitvec.PinOfBit(bit) != bitvec.PinOfBit(b1) {
			b2 = bit
			break
		}
	}
	if b2 < 0 {
		t.Fatal("could not find suitable bit pair")
	}
	bad := wire.FlipBit(b1).FlipBit(b2)

	if res := noCSC.Decode(bad); res.Status != ecc.Corrected || res.Data != data {
		t.Fatalf("I:SEC-DED should opportunistically correct: %v", res.Status)
	}
	if res := duet.Decode(bad); res.Status != ecc.Detected {
		t.Fatalf("DuetECC should raise DUE via CSC: %v", res.Status)
	}
}

func codewordOfWireBit(b *Binary, wireBit int) int {
	for c := 0; c < 4; c++ {
		for j := 0; j < 72; j++ {
			if int(b.physOf[c][j]) == wireBit {
				return c
			}
		}
	}
	return -1
}

func TestReconfigurableModes(t *testing.T) {
	r := NewReconfigurable()
	if r.CurrentMode() != ModeDuet {
		t.Fatal("default mode must be Duet")
	}
	var data [bitvec.DataBytes]byte
	data[3] = 0xA5
	wire := r.Encode(data)

	// A full byte error: Trio corrects, Duet detects.
	base := bitvec.ByteBase(11)
	bad := wire
	for k := 0; k < 8; k++ {
		bad = bad.FlipBit(base + k)
	}
	if res := r.Decode(bad); res.Status != ecc.Detected {
		t.Fatalf("Duet mode on byte error: %v", res.Status)
	}
	r.SetMode(ModeTrio)
	if res := r.Decode(bad); res.Status != ecc.Corrected || res.Data != data {
		t.Fatalf("Trio mode on byte error: %v", res.Status)
	}
	// Both modes share the encoder, so switching back must still decode
	// clean entries.
	r.SetMode(ModeDuet)
	if res := r.Decode(wire); res.Status != ecc.OK || res.Data != data {
		t.Fatalf("clean decode after mode switch: %v", res.Status)
	}
	if r.Name() == "" || !r.CorrectsPins() {
		t.Fatal("metadata accessors broken")
	}
}

func TestSchemeNames(t *testing.T) {
	want := map[string]bool{
		"NI:SEC-DED": true, "I:SEC-DED": true, "DuetECC": true,
		"NI:SEC-2bEC": true, "I:SEC-2bEC": true, "TrioECC": true,
		"I:SSC": true, "I:SSC+CSC": true, "SSC-DSD+": true,
	}
	for _, s := range allSchemes() {
		if !want[s.Name()] {
			t.Fatalf("unexpected scheme name %q", s.Name())
		}
		delete(want, s.Name())
	}
	if len(want) != 0 {
		t.Fatalf("missing schemes: %v", want)
	}
}

// TestSchemeRegistryRoundTrip checks that every registered name resolves to a
// scheme reporting that same name, and that unknown names are refused.
func TestSchemeRegistryRoundTrip(t *testing.T) {
	for _, name := range SchemeNames() {
		s, err := SchemeByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if s.Name() != name {
			t.Errorf("SchemeByName(%q).Name() = %q", name, s.Name())
		}
	}
	if len(Table2Names()) != 9 {
		t.Fatalf("Table2Names = %v", Table2Names())
	}
	if _, err := SchemeByName("bogus"); err == nil {
		t.Error("unknown scheme name accepted")
	}
}

func TestBinaryFlagAccessors(t *testing.T) {
	trio := NewTrioECC()
	if !trio.Interleaved() || !trio.HasCSC() || !trio.Corrects2b() {
		t.Fatal("TrioECC flags wrong")
	}
	base := NewSECDED(false, false)
	if base.Interleaved() || base.HasCSC() || base.Corrects2b() {
		t.Fatal("baseline flags wrong")
	}
}

func TestDetectedLeavesWireUntouched(t *testing.T) {
	s := NewDuetECC()
	var data [bitvec.DataBytes]byte
	wire := s.Encode(data)
	base := bitvec.ByteBase(4)
	bad := wire
	for k := 0; k < 8; k++ {
		bad = bad.FlipBit(base + k)
	}
	wr := s.DecodeWire(bad)
	if wr.Status != ecc.Detected {
		t.Fatalf("status %v", wr.Status)
	}
	if wr.Wire != bad {
		t.Fatal("DUE must not modify the wire image")
	}
}

func TestRandomEntryErrorsNeverOKWithWrongData(t *testing.T) {
	// Whatever a scheme does with a random severe error, status OK with
	// corrupted data is impossible unless the error is an exact codeword
	// aliasing — count those as SDC but ensure classification agrees.
	rng := rand.New(rand.NewSource(8))
	for _, s := range allSchemes() {
		data := randomData(rng)
		wire := s.Encode(data)
		for trial := 0; trial < 2000; trial++ {
			bad := wire
			n := 2 + rng.Intn(30)
			for k := 0; k < n; k++ {
				bad = bad.FlipBit(rng.Intn(bitvec.EntryBits))
			}
			if bad == wire {
				continue
			}
			res := s.Decode(bad)
			out := ecc.Classify(res.Status, res.Data == data, true)
			if out == ecc.NoError {
				t.Fatalf("%s: injected error classified NoError", s.Name())
			}
		}
	}
}

func BenchmarkDuetDecodeClean(b *testing.B) {
	s := NewDuetECC()
	var data [bitvec.DataBytes]byte
	wire := s.Encode(data)
	for i := 0; i < b.N; i++ {
		_ = s.DecodeWire(wire)
	}
}

func BenchmarkTrioDecodeByteError(b *testing.B) {
	s := NewTrioECC()
	var data [bitvec.DataBytes]byte
	wire := s.Encode(data)
	base := bitvec.ByteBase(7)
	bad := wire
	for k := 0; k < 8; k++ {
		bad = bad.FlipBit(base + k)
	}
	for i := 0; i < b.N; i++ {
		_ = s.DecodeWire(bad)
	}
}

func BenchmarkSSCDSDPlusDecode(b *testing.B) {
	s := NewSSCDSDPlus()
	var data [bitvec.DataBytes]byte
	wire := s.Encode(data)
	bad := wire.FlipBit(100)
	for i := 0; i < b.N; i++ {
		_ = s.DecodeWire(bad)
	}
}
