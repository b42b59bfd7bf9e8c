package hsiao

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hbm2ecc/internal/bitvec"
	"hbm2ecc/internal/ecc"
)

func TestConstructionProperties(t *testing.T) {
	c := New()
	if !c.H.AllColumnsOddWeight() {
		t.Fatal("Hsiao code must have all odd-weight columns")
	}
	if !c.H.IsSECDED() {
		t.Fatal("code must be SEC-DED")
	}
	for r, w := range c.H.RowWeights() {
		if w != TargetRowWeight {
			t.Fatalf("row %d weight %d, want %d", r, w, TargetRowWeight)
		}
	}
}

func TestEncodeZeroSyndrome(t *testing.T) {
	c := New()
	f := func(data uint64) bool {
		return c.Syndrome(c.Encode(data)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestAllSingleBitErrorsCorrected(t *testing.T) {
	c := New()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		data := rng.Uint64()
		cw := c.Encode(data)
		for j := 0; j < 72; j++ {
			got, st, pos := c.Decode(cw.FlipBit(j))
			if st != ecc.Corrected {
				t.Fatalf("bit %d: status %v", j, st)
			}
			if pos != j {
				t.Fatalf("bit %d: corrected position %d", j, pos)
			}
			if got != cw {
				t.Fatalf("bit %d: corrected word differs", j)
			}
		}
	}
}

func TestAllDoubleBitErrorsDetected(t *testing.T) {
	c := New()
	data := uint64(0xDEADBEEF01234567)
	cw := c.Encode(data)
	for i := 0; i < 72; i++ {
		for j := i + 1; j < 72; j++ {
			_, st, _ := c.Decode(cw.FlipBit(i).FlipBit(j))
			if st != ecc.Detected {
				t.Fatalf("double error (%d,%d): status %v", i, j, st)
			}
		}
	}
}

func TestNoErrorIsOK(t *testing.T) {
	c := New()
	cw := c.Encode(42)
	got, st, pos := c.Decode(cw)
	if st != ecc.OK || pos != -1 || got != cw {
		t.Fatalf("clean decode: %v %v %d", got, st, pos)
	}
}

func TestTripleErrorsNeverSilent(t *testing.T) {
	// Triple errors have odd-weight syndromes: they are either corrected
	// (miscorrected, acceptable for SEC-DED) or detected — never status OK.
	c := New()
	cw := c.Encode(0x5555AAAA5555AAAA)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20000; trial++ {
		i, j, k := rng.Intn(72), rng.Intn(72), rng.Intn(72)
		if i == j || j == k || i == k {
			continue
		}
		_, st, _ := c.Decode(cw.FlipBit(i).FlipBit(j).FlipBit(k))
		if st == ecc.OK {
			t.Fatalf("triple error (%d,%d,%d) invisible", i, j, k)
		}
	}
}

func TestMarshalParseRoundTrip(t *testing.T) {
	c := New()
	text, err := c.H.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := parseHelper(string(text))
	if err != nil {
		t.Fatal(err)
	}
	if h2.Cols != c.H.Cols {
		t.Fatal("marshal/parse round trip changed the matrix")
	}
}

func TestDeterministicConstruction(t *testing.T) {
	a, b := New(), New()
	if a.H.Cols != b.H.Cols {
		t.Fatal("construction must be deterministic")
	}
}

func BenchmarkDecodeSingleError(b *testing.B) {
	c := New()
	cw := c.Encode(0x0123456789ABCDEF)
	bad := cw.FlipBit(17)
	var sink bitvec.V72
	for i := 0; i < b.N; i++ {
		sink, _, _ = c.Decode(bad)
	}
	_ = sink
}

// TestNewSharesColumnsNotState pins the memoized column search: every
// New returns the same columns in a distinct H72 and Code.
func TestNewSharesColumnsNotState(t *testing.T) {
	a, b := New(), New()
	if a.H.Cols != b.H.Cols {
		t.Fatal("two New() calls built different columns")
	}
	if a == b || a.H == b.H {
		t.Fatal("New() must return a fresh Code and H72 on every call")
	}
	a.H.Cols[0] ^= 1
	if c := New(); c.H.Cols == a.H.Cols {
		t.Fatal("mutating one code's H leaked into a later New()")
	}
}
