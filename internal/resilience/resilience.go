// Package resilience provides the fault-tolerance building blocks the
// simulated fleet composes on top of the device model: a weak-row
// retirement table (the paper's §4 weak-cell filter turned into the
// dynamic page/row retirement production GPUs ship), retry with
// exponential backoff and deterministic jitter for transient faults, a
// DUE budget that drops a device into degraded mode once uncorrectable
// errors exhaust it, and atomic JSON checkpoints so long campaigns can
// be killed and resumed without losing or skewing statistics.
//
// All counters flow into the internal/obs Default registry so any
// /metrics surface (cmd/fleetd, cmd/obsd, beamsim -metrics, ...)
// reports them. They sum over every table in the process; a node's own
// spare-row use is its Xid 63/64 history at the fleet coordinator.
package resilience

import (
	"math/rand"
	"sort"

	"hbm2ecc/internal/obs"
)

// Process-wide resilience telemetry. The unlabeled series are resolved
// eagerly so the families appear in /metrics from process start.
var (
	mRowsRetired = obs.NewCounter("resilience_rows_retired_total",
		"Weak DRAM rows offlined by the retirement table.").With()
	mRetireDropped = obs.NewCounter("resilience_retirements_dropped_total",
		"Retirement requests dropped because the spare-row pool was empty.").With()
	mRetries = obs.NewCounter("resilience_retries_total",
		"Read retries issued for transient or detected-uncorrectable faults.").With()
	mRetryGiveups = obs.NewCounter("resilience_retry_giveups_total",
		"Reads that exhausted their retry budget without a clean decode.").With()
	mDegradations = obs.NewCounter("resilience_degradations_total",
		"Devices that entered degraded mode after DUE budget exhaustion.").With()
)

// RetirementPolicy bounds the retirement table.
type RetirementPolicy struct {
	// ErrorThreshold is the number of observed errors on one row before
	// it is retired (default 2 — mirroring the paper's "errors in two or
	// more write passes means displacement damage" filter).
	ErrorThreshold int
	// SpareRows is the pool of spare rows available for remapping
	// (default 64). When exhausted, weak rows keep erroring and the
	// drops are counted.
	SpareRows int
}

func (p *RetirementPolicy) defaults() {
	if p.ErrorThreshold <= 0 {
		p.ErrorThreshold = 2
	}
	if p.SpareRows <= 0 {
		p.SpareRows = 64
	}
}

// RetirementTable tracks per-row repeat errors and offlines rows that
// cross the policy threshold, remapping them to spare rows. It is not
// safe for concurrent use; callers serialize (the device model is
// single-threaded by design).
type RetirementTable struct {
	policy  RetirementPolicy
	errs    map[int64]int
	retired map[int64]int // row key -> spare slot
	dropped int
}

// NewRetirementTable builds an empty table under the given policy.
func NewRetirementTable(policy RetirementPolicy) *RetirementTable {
	policy.defaults()
	return &RetirementTable{
		policy:  policy,
		errs:    make(map[int64]int),
		retired: make(map[int64]int),
	}
}

// Policy returns the effective (defaulted) policy.
func (t *RetirementTable) Policy() RetirementPolicy { return t.policy }

// Record notes one error on a row and reports whether this call retired
// it. Errors on already-retired rows are ignored (the spare row is
// pristine; residual errors there are the caller's fault model talking).
func (t *RetirementTable) Record(row int64) (retiredNow bool) {
	if _, ok := t.retired[row]; ok {
		return false
	}
	t.errs[row]++
	if t.errs[row] < t.policy.ErrorThreshold {
		return false
	}
	if len(t.retired) >= t.policy.SpareRows {
		t.dropped++
		mRetireDropped.Inc()
		return false
	}
	t.retired[row] = len(t.retired)
	mRowsRetired.Inc()
	return true
}

// Retired reports whether the row has been offlined.
func (t *RetirementTable) Retired(row int64) bool {
	_, ok := t.retired[row]
	return ok
}

// RetiredCount returns the number of offlined rows.
func (t *RetirementTable) RetiredCount() int { return len(t.retired) }

// SparesLeft returns the number of spare rows still available.
func (t *RetirementTable) SparesLeft() int { return t.policy.SpareRows - len(t.retired) }

// Dropped returns retirement requests lost to spare exhaustion.
func (t *RetirementTable) Dropped() int { return t.dropped }

// Rows returns the retired row keys in sorted order.
func (t *RetirementTable) Rows() []int64 {
	out := make([]int64, 0, len(t.retired))
	for row := range t.retired {
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// RetryPolicy issues exponential backoff delays with deterministic
// jitter for transient-fault retries. Delays are simulated seconds (the
// device clock advances by them), not wall time.
type RetryPolicy struct {
	// MaxAttempts is the total number of read attempts including the
	// first (default 4, i.e. up to 3 retries).
	MaxAttempts int
	// Base and Max bound the backoff window in simulated seconds
	// (defaults 1µs and 1ms).
	Base, Max float64
	rng       *rand.Rand
}

// NewRetryPolicy builds a retry policy; the seed makes jitter
// reproducible run-to-run.
func NewRetryPolicy(maxAttempts int, base, max float64, seed int64) *RetryPolicy {
	if maxAttempts <= 0 {
		maxAttempts = 4
	}
	if base <= 0 {
		base = 1e-6
	}
	if max <= 0 {
		max = 1e-3
	}
	return &RetryPolicy{
		MaxAttempts: maxAttempts,
		Base:        base,
		Max:         max,
		rng:         rand.New(rand.NewSource(seed)),
	}
}

// NextDelay returns the backoff before retry number attempt (1-based:
// attempt 1 is the first retry) and whether the retry budget allows it.
// The delay doubles per attempt, is capped at Max, and carries ±50%
// jitter so synchronized retry storms decorrelate.
func (p *RetryPolicy) NextDelay(attempt int) (float64, bool) {
	if attempt >= p.MaxAttempts {
		mRetryGiveups.Inc()
		return 0, false
	}
	d := p.Base
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= p.Max {
			d = p.Max
			break
		}
	}
	d *= 0.5 + p.rng.Float64() // jitter in [0.5d, 1.5d)
	if d > p.Max {
		d = p.Max
	}
	mRetries.Inc()
	return d, true
}

// DegradeGuard spends a DUE budget; once exhausted the guarded device is
// degraded (reads still complete, but the device should be drained and
// replaced — the gpud playbook for Xid 48/63/64-class errors).
type DegradeGuard struct {
	// Budget is the number of DUEs tolerated before degrading
	// (default 100).
	Budget   int
	spent    int
	degraded bool
}

// NewDegradeGuard builds a guard with the given budget (<=0 selects the
// default of 100).
func NewDegradeGuard(budget int) *DegradeGuard {
	if budget <= 0 {
		budget = 100
	}
	return &DegradeGuard{Budget: budget}
}

// RecordDUE spends one unit of budget and reports whether this call
// tipped the device into degraded mode.
func (g *DegradeGuard) RecordDUE() (degradedNow bool) {
	g.spent++
	if !g.degraded && g.spent >= g.Budget {
		g.degraded = true
		mDegradations.Inc()
		return true
	}
	return false
}

// Degraded reports whether the budget is exhausted.
func (g *DegradeGuard) Degraded() bool { return g.degraded }

// Spent returns the number of DUEs recorded.
func (g *DegradeGuard) Spent() int { return g.spent }
