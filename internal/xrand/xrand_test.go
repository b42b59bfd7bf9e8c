package xrand

import (
	"math"
	"math/rand"
	"testing"
)

// drawBoth pulls n values from want and got through the *rand.Rand
// methods the repo's call sites use, failing at the first difference.
func drawBoth(t *testing.T, want, got *rand.Rand, n int, label string) {
	t.Helper()
	for i := 0; i < n; i++ {
		var w, g any
		switch i % 5 {
		case 0:
			w, g = want.Uint64(), got.Uint64()
		case 1:
			w, g = want.Int63(), got.Int63()
		case 2:
			w, g = want.Float64(), got.Float64()
		case 3:
			m := 1 + i%97
			w, g = want.Intn(m), got.Intn(m)
		case 4:
			m := int64(1)<<40 + int64(i)
			w, g = want.Int63n(m), got.Int63n(m)
		}
		if w != g {
			t.Fatalf("%s: draw %d: stdlib %v, xrand %v", label, i, w, g)
		}
	}
}

// edgeSeeds are the seeds where stdlib's normalization has a case: the
// zero substitution, the int32max modulus and the wrap of negatives.
var edgeSeeds = []int64{
	0, 1, -1, zeroSeed, int32max, -int32max, int32max + 5,
	math.MinInt64, math.MaxInt64,
}

func TestSourceMatchesStdlib(t *testing.T) {
	seeds := append([]int64(nil), edgeSeeds...)
	r := rand.New(rand.NewSource(2021))
	for i := 0; i < 300; i++ {
		seeds = append(seeds, int64(r.Uint64()))
	}
	for _, seed := range seeds {
		drawBoth(t, rand.New(rand.NewSource(seed)), New(seed), 2000, "seed")
	}
}

// TestReseedAfterDraws reseeds a used source around the draw counts
// where a read switches from the seeded state to vec. Seed clears
// nothing, so a stale word read too early would show here.
func TestReseedAfterDraws(t *testing.T) {
	for _, used := range []int{0, 1, 272, 273, 274, 606, 607, 608, 5000} {
		for _, seed := range []int64{0, 7, -3, 1 << 40} {
			got := New(seed + 1)
			for i := 0; i < used; i++ {
				got.Uint64()
			}
			got.Seed(seed)
			drawBoth(t, rand.New(rand.NewSource(seed)), got, 2000, "reseed")
		}
	}
}

// FuzzSourceVsStdlib draws from a source seeded with a, reseeds it
// with b after used draws, and draws n more; both stretches must equal
// stdlib's.
func FuzzSourceVsStdlib(f *testing.F) {
	f.Add(int64(0), int64(1), uint16(700), uint16(700))
	f.Add(int64(math.MinInt64), int64(int32max), uint16(273), uint16(1))
	f.Add(int64(-1), int64(zeroSeed), uint16(607), uint16(273))
	f.Fuzz(func(t *testing.T, a, b int64, used, n uint16) {
		got := New(a)
		drawBoth(t, rand.New(rand.NewSource(a)), got, int(used%2048), "first seed")
		got.Seed(b)
		drawBoth(t, rand.New(rand.NewSource(b)), got, int(n%2048), "reseed")
	})
}

var sink uint64

// BenchmarkSeedDraw8 is a short-lived generator's whole life: one seed
// and eight draws.
func BenchmarkSeedDraw8(b *testing.B) {
	for _, bc := range []struct {
		name string
		new  func(int64) rand.Source64
	}{
		{"stdlib", func(s int64) rand.Source64 { return rand.NewSource(s).(rand.Source64) }},
		{"xrand", func(s int64) rand.Source64 { return NewSource(s) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				src := bc.new(int64(i))
				for j := 0; j < 8; j++ {
					sink += src.Uint64()
				}
			}
		})
	}
}
