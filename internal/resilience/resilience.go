// Package resilience holds the checkpoint and retry primitives the
// long-running tools and daemons share: atomic JSON checkpoints
// (SaveJSON/LoadJSON) so campaigns can be killed and resumed without
// losing or skewing statistics, and the jittered exponential Backoff
// every retry loop draws its delays from.
package resilience

import "math/rand"

// Backoff returns the delay before retry number attempt (1-based:
// attempt 1 is the first retry), in whatever unit base and max are
// given. The delay doubles per attempt from base, is capped at max, and
// carries ±50% jitter from one rng draw, so retries that failed
// together spread apart. Callers own the retry budget.
func Backoff(rng *rand.Rand, attempt int, base, max float64) float64 {
	d := base
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= max {
			d = max
			break
		}
	}
	d *= 0.5 + rng.Float64() // jitter in [0.5d, 1.5d)
	if d > max {
		d = max
	}
	return d
}
