// Package microbench ports the paper's targeted CUDA DRAM microbenchmark
// (§3) to the simulated GPU: it writes a known pattern to every memory
// entry, reads memory back repeatedly (10 write loops × 20 reads each),
// alternates every write cycle between the pattern and its inverse (to
// diagnose unidirectional intermittent errors), and logs time-stamped
// mismatch records to host memory. Three data patterns are supported:
// All0/All1, pseudo-checkerboard (0x55/0xAA), and AN-encoded word indices.
//
// The simulation is event-driven but observation-faithful: instead of
// scanning 2^30 entries per pass, it enumerates exactly the (entry, read)
// pairs that could mismatch — those covered by an injected event or a
// weak cell — and evaluates the device state at each entry's in-pass read
// time, producing the same record stream the scanning benchmark would.
package microbench

import (
	"context"
	"math/rand"
	"slices"
	"sync"

	"hbm2ecc/internal/anenc"
	"hbm2ecc/internal/beam"
	"hbm2ecc/internal/dram"
	"hbm2ecc/internal/hbm2"
	"hbm2ecc/internal/obs"
)

// Process-wide microbenchmark telemetry. Counters are cheap atomics;
// spans are recorded only when Config.Span is set (wired by the campaign
// drivers), so the unit-test hot path pays two atomic adds per run.
var (
	mRuns = obs.NewCounter("microbench_runs_total",
		"Microbenchmark runs executed.", "pattern")
	mDiscardedRuns = obs.NewCounter("microbench_runs_discarded_total",
		"Runs discarded by the host-side duplicated-execution checks.").With()
	mRecords = obs.NewCounter("microbench_mismatch_records_total",
		"Mismatch records logged.", "pattern")
	mRecordsPerRun = obs.NewHistogram("microbench_records_per_run",
		"Distribution of mismatch records per run.",
		obs.ExpBuckets(1, 2, 14)).With()
)

// PatternKind selects the written data pattern.
type PatternKind int

const (
	// AllZero writes 0x00 everywhere (0xFF on inverse cycles).
	AllZero PatternKind = iota
	// Checkerboard writes 0x55 everywhere (0xAA on inverse cycles).
	Checkerboard
	// ANEncoded writes each 8B word's global index × (2^32−1).
	ANEncoded
	NumPatterns
)

func (p PatternKind) String() string {
	switch p {
	case AllZero:
		return "All0/All1"
	case Checkerboard:
		return "Checkerboard"
	case ANEncoded:
		return "AN-encoded"
	default:
		return "Pattern(?)"
	}
}

// PatternData returns the payload written to entry idx under pattern p,
// inverted on odd write cycles.
func PatternData(p PatternKind, idx int64, inverse bool) [hbm2.EntryBytes]byte {
	var d [hbm2.EntryBytes]byte
	switch p {
	case AllZero:
		// zero value
	case Checkerboard:
		for i := range d {
			d[i] = 0x55
		}
	case ANEncoded:
		for w := 0; w < 4; w++ {
			v := anenc.Encode(uint64(idx)*4 + uint64(w))
			for k := 0; k < 8; k++ {
				d[w*8+k] = byte(v >> uint(8*k))
			}
		}
	}
	if inverse {
		for i := range d {
			d[i] = ^d[i]
		}
	}
	return d
}

// Record is one logged mismatch: an entry whose read data differed from
// the written pattern.
type Record struct {
	Time      float64
	WritePass int
	ReadPass  int
	Entry     int64
	Expected  [hbm2.EntryBytes]byte
	Got       [hbm2.EntryBytes]byte
}

// Log is the host-side mismatch log of one run.
type Log struct {
	Pattern   PatternKind
	Records   []Record
	StartTime float64
	EndTime   float64
	// Discarded marks runs failing the duplicated-execution /
	// duplicated-logging / assertion checks (≈0.6% of runs, §3); their
	// records must not be used.
	Discarded bool
	// Cancelled marks runs cut short by context cancellation; their
	// records are partial and must not enter campaign statistics.
	Cancelled bool
}

// Config drives one microbenchmark run.
type Config struct {
	Device *dram.Device
	// Beam is the beamline, or nil for out-of-beam runs (refresh sweeps,
	// annealing experiments).
	Beam    *beam.Beam
	Pattern PatternKind
	// WritePasses and ReadsPerWrite default to the paper's 10 and 20.
	WritePasses   int
	ReadsPerWrite int
	// PassDuration is the simulated wall time of one full-memory pass.
	PassDuration float64
	// Utilization restricts the benchmark to the first fraction of
	// memory and scales the logic-fault rate (default 1.0).
	Utilization float64
	// StartTime continues a campaign's clock.
	StartTime float64
	// Seed drives host-side effects (run discards).
	Seed int64
	// DiscardProb defaults to the paper's measured 11/1830 ≈ 0.6%;
	// a negative value disables discards entirely (controlled
	// experiments where every run must count).
	DiscardProb float64
	// Span, when non-nil, is the parent tracing span: the run emits
	// write_pass / read_scan / evaluate child spans under it. Purely
	// observational — it never touches the simulation RNG or results.
	Span *obs.Span
	// Ctx, when non-nil, makes the run cancellable at write-pass
	// granularity: a cancelled run returns early with Cancelled set.
	Ctx context.Context
}

func (c *Config) defaults() {
	if c.WritePasses == 0 {
		c.WritePasses = 10
	}
	if c.ReadsPerWrite == 0 {
		c.ReadsPerWrite = 20
	}
	if c.PassDuration == 0 {
		c.PassDuration = 0.05
	}
	if c.Utilization == 0 {
		c.Utilization = 1.0
	}
	if c.DiscardProb == 0 {
		c.DiscardProb = 11.0 / 1830.0
	}
}

// Run executes one microbenchmark run and returns its mismatch log.
func Run(cfg Config) *Log {
	cfg.defaults()
	dev := cfg.Device
	log := &Log{Pattern: cfg.Pattern, StartTime: cfg.StartTime}

	limit := int64(float64(dev.Cfg.Entries()) * cfg.Utilization)
	if limit < 1 {
		limit = 1
	}
	readFrac := func(entry int64) float64 { return float64(entry) / float64(limit) }
	readTime := func(readStart float64, r int, entry int64) float64 {
		return readStart + (float64(r)+readFrac(entry))*cfg.PassDuration
	}

	ev := scratchPool.Get().(*evalScratch)
	ev.recs = ev.recs[:0]
	defer scratchPool.Put(ev)
	// candidates maps an entry to the earliest read pass that could
	// observe a deviation.
	candidates := map[int64]int{}
	nr := cfg.ReadsPerWrite
	t := cfg.StartTime
	for w := 0; w < cfg.WritePasses; w++ {
		if cfg.Ctx != nil && cfg.Ctx.Err() != nil {
			log.Cancelled = true
			log.EndTime = t
			log.Records = ev.records()
			return log
		}
		inverse := w%2 == 1
		pat := func(idx int64) [hbm2.EntryBytes]byte {
			return PatternData(cfg.Pattern, idx, inverse)
		}
		writeSpan := cfg.Span.Child("write_pass")
		dev.WriteAll(pat, t)
		writeEnd := t + cfg.PassDuration
		clear(candidates)
		if cfg.Beam != nil {
			for _, te := range cfg.Beam.Expose(t, writeEnd, cfg.Utilization) {
				for _, eff := range te.Event.Effects {
					if eff.Entry < limit {
						markCandidate(candidates, eff.Entry, 0)
					}
				}
			}
		}
		t = writeEnd
		writeSpan.Finish()

		readSpan := cfg.Span.Child("read_scan")
		readStart := t
		for r := 0; r < nr; r++ {
			passStart := readStart + float64(r)*cfg.PassDuration
			passEnd := passStart + cfg.PassDuration
			if cfg.Beam != nil {
				for _, te := range cfg.Beam.Expose(passStart, passEnd, cfg.Utilization) {
					for _, eff := range te.Event.Effects {
						if eff.Entry >= limit {
							continue
						}
						// Observable from this read pass if the entry is
						// read after the event, else from the next.
						first := r
						if passStart+readFrac(eff.Entry)*cfg.PassDuration < te.Time {
							first = r + 1
						}
						markCandidate(candidates, eff.Entry, first)
					}
				}
			}
		}
		// Weak cells become candidates once their retention expires.
		dev.RangeWeakCells(func(entry int64, wc dram.WeakCell) bool {
			if entry >= limit {
				return true
			}
			eff := wc.Retention + dev.RetentionShift()
			if eff >= dev.RefreshPeriod {
				return true
			}
			leakTime := dev.LastWrite() + eff
			// First read pass whose read of this entry happens after the
			// leak.
			for r := 0; r < nr; r++ {
				if readTime(readStart, r, entry) > leakTime {
					markCandidate(candidates, entry, r)
					break
				}
			}
			return true
		})
		readSpan.Finish()

		// Evaluate candidates against device state at their read times:
		// each entry's reads are one series, since the pass's
		// corruption is all injected by now. Emitting read passes
		// outside and ascending entries inside visits read times in
		// increasing order, so records come out sorted by Time.
		evalSpan := cfg.Span.Child("evaluate")
		ev.entries = ev.entries[:0]
		for entry := range candidates {
			ev.entries = append(ev.entries, entry)
		}
		slices.Sort(ev.entries)
		n := len(ev.entries)
		ev.first = slices.Grow(ev.first[:0], n)[:n]
		ev.expected = slices.Grow(ev.expected[:0], n)[:n]
		ev.got = slices.Grow(ev.got[:0], n*nr)[:n*nr]
		for i, entry := range ev.entries {
			f := candidates[entry]
			ev.first[i] = f
			ev.expected[i] = dev.Expected(entry)
			if f >= nr {
				continue
			}
			ev.ts = ev.ts[:0]
			for r := f; r < nr; r++ {
				ev.ts = append(ev.ts, readTime(readStart, r, entry))
			}
			dev.ReadSeries(entry, ev.ts, ev.got[i*nr+f:(i+1)*nr])
		}
		for r := 0; r < nr; r++ {
			for i, entry := range ev.entries {
				if r < ev.first[i] || ev.got[i*nr+r] == ev.expected[i] {
					continue
				}
				ev.recs = append(ev.recs, Record{
					Time:      readTime(readStart, r, entry),
					WritePass: w,
					ReadPass:  r,
					Entry:     entry,
					Expected:  ev.expected[i],
					Got:       ev.got[i*nr+r],
				})
			}
		}
		evalSpan.Finish()
		t = readStart + float64(nr)*cfg.PassDuration
	}
	log.EndTime = t
	log.Records = ev.records()
	rng := rand.New(rand.NewSource(cfg.Seed))
	if rng.Float64() < cfg.DiscardProb {
		log.Discarded = true
	}

	mRuns.With(cfg.Pattern.String()).Inc()
	if log.Discarded {
		mDiscardedRuns.Inc()
	}
	mRecords.With(cfg.Pattern.String()).Add(uint64(len(log.Records)))
	mRecordsPerRun.Observe(float64(len(log.Records)))
	return log
}

// evalScratch holds a run's candidate and read buffers, reused by its
// write passes, and the records it has found so far. entries holds the
// candidates sorted, first their first reads, expected their written
// payloads and got row i entry i's reads, one per read pass.
type evalScratch struct {
	entries  []int64
	first    []int
	expected [][hbm2.EntryBytes]byte
	got      [][hbm2.EntryBytes]byte
	ts       []float64
	recs     []Record
}

// scratchPool passes evalScratch from run to run, so that the runs of a
// campaign do not regrow the buffers.
var scratchPool = sync.Pool{New: func() any {
	return new(evalScratch)
}}

// records returns the run's records in a slice of exactly their length,
// or nil when there are none.
func (ev *evalScratch) records() []Record {
	if len(ev.recs) == 0 {
		return nil
	}
	return slices.Clone(ev.recs)
}

func markCandidate(m map[int64]int, entry int64, firstRead int) {
	if cur, ok := m[entry]; !ok || firstRead < cur {
		m[entry] = firstRead
	}
}
