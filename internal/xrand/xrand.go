// Package xrand provides a math/rand source that yields exactly the
// stream of rand.NewSource(seed) but seeds in constant time.
//
// rand.NewSource fills all 607 words of its lagged-Fibonacci state when
// it is seeded (~15 µs), which dominates a generator that lives for one
// short run and draws a handful of numbers. Source computes each word of
// that initial state only when a draw first reads it, so seeding costs a
// few field stores and every draw, from the first, equals the stdlib
// stream's. A steady-state draw is slightly slower than stdlib's, so
// long-lived streams that draw millions of numbers stay on
// rand.NewSource.
package xrand

import "math/rand"

// The stdlib source's constants (math/rand rng.go).
const (
	rngLen   = 607
	rngTap   = 273
	int32max = 1<<31 - 1
	// zeroSeed replaces a seed that normalizes to 0.
	zeroSeed = 89482311
	// powLen covers the exponents word rngLen-1 needs: 23 + 3·606.
	powLen = 24 + 3*(rngLen-1)
)

var (
	// pow[j] = 48271^j mod 2³¹−1: stdlib's seeding LCG steps j times
	// from the seed, so its j-th state is seed·pow[j].
	pow [powLen]uint64
	// cooked is math/rand's unexported rngCooked table, recovered in
	// init from the stdlib stream.
	cooked [rngLen]int64
)

func init() {
	pow[0] = 1
	for j := 1; j < powLen; j++ {
		pow[j] = mulmod(pow[j-1], 48271)
	}
	// Invert the first rngLen draws of a stdlib source seeded with 1.
	// Draw k adds word 606−k (the tap) into word (333−k) mod 607 (the
	// feed) and returns the sum. From draw rngTap on, the tap word is
	// the sum draw k−rngTap wrote, so out[k] − out[k−rngTap] is the
	// feed word's seeded value; that gives words 0..60 and 334..606.
	// The first rngTap draws add two seeded words, 333−k and 606−k, and
	// give the rest from the words already known.
	src := rand.NewSource(1).(rand.Source64)
	var out [rngLen]int64
	for k := range out {
		out[k] = int64(src.Uint64())
	}
	var vec [rngLen]int64
	for k := rngTap; k < rngLen; k++ {
		vec[feedAt(k)] = out[k] - out[k-rngTap]
	}
	for k := 0; k < rngTap; k++ {
		vec[feedAt(k)] = out[k] - vec[rngLen-1-k]
	}
	for i := range cooked {
		cooked[i] = vec[i] ^ lcgWord(1, i)
	}
}

// feedAt is the feed index of draw k < rngLen after a Seed.
func feedAt(k int) int {
	return (rngLen - rngTap - 1 - k + rngLen) % rngLen
}

// mulmod returns a·b mod 2³¹−1 for a, b < 2³¹.
func mulmod(a, b uint64) uint64 {
	p := a * b
	p = p&int32max + p>>31
	if p >= int32max {
		p -= int32max
	}
	return p
}

// lcgWord is word i of the seeded state before stdlib XORs in
// rngCooked[i]: three consecutive LCG states, from the 21st + 3i on.
func lcgWord(seed uint64, i int) int64 {
	j := 21 + 3*i
	return int64(mulmod(seed, pow[j]))<<40 ^
		int64(mulmod(seed, pow[j+1]))<<20 ^
		int64(mulmod(seed, pow[j+2]))
}

// Source is a rand.Source64 whose stream equals rand.NewSource's for
// the same seed. Like the stdlib source it is not safe for concurrent
// use.
type Source struct {
	tap, feed int
	// n counts draws since Seed, up to rngLen. Draw n reads the feed
	// word in its seeded state while n < rngLen, and the tap word while
	// n < rngTap; every other read is of a word some draw since Seed
	// wrote. So Seed need not clear vec.
	n    int
	seed uint64
	vec  [rngLen]int64
}

// NewSource returns a Source seeded with seed.
func NewSource(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// New returns a *rand.Rand drawing from NewSource(seed).
func New(seed int64) *rand.Rand { return rand.New(NewSource(seed)) }

// Seed resets the source to rand.NewSource(seed)'s initial state. It
// normalizes seed as the stdlib source does: modulo 2³¹−1, negatives
// wrapped, and 0 replaced by 89482311.
func (s *Source) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = zeroSeed
	}
	s.seed = uint64(seed)
	s.tap = 0
	s.feed = rngLen - rngTap
	s.n = 0
}

// seeded is word i of the state Seed stands for.
func (s *Source) seeded(i int) int64 {
	return lcgWord(s.seed, i) ^ cooked[i]
}

// Uint64 returns the next 64-bit value of the stream.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	var x int64
	if s.n < rngLen {
		tap := s.vec[s.tap]
		if s.n < rngTap {
			tap = s.seeded(s.tap)
		}
		x = s.seeded(s.feed) + tap
		s.n++
	} else {
		x = s.vec[s.feed] + s.vec[s.tap]
	}
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the next value of the stream with its top bit cleared.
func (s *Source) Int63() int64 {
	return int64(s.Uint64() &^ (1 << 63))
}
