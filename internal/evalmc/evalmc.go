// Package evalmc evaluates entry-level ECC schemes against the analytical
// error model, regenerating the paper's Table 2 (per-pattern SDC risk) and
// Fig. 8 (Table-1-weighted correction/detection/SDC probabilities).
//
// Bit, pin, byte and 2-bit errors are evaluated exhaustively; 3-bit, beat
// and entry errors by Monte Carlo with configurable sample counts (the
// paper used 1e7/1e9 samples; defaults here are smaller and every number
// carries a Wilson confidence interval).
//
// Because every code in the repository is linear, the decode outcome
// depends only on the error pattern, not the stored data; the evaluator
// still encodes a caller-provided payload so that nonlinearity bugs would
// surface as data-dependent results in tests.
package evalmc

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"sync"
	"time"

	"hbm2ecc/internal/bitvec"
	"hbm2ecc/internal/campaign"
	"hbm2ecc/internal/core"
	"hbm2ecc/internal/ecc"
	"hbm2ecc/internal/errormodel"
	"hbm2ecc/internal/obs"
	"hbm2ecc/internal/stats"
)

// Monte-Carlo telemetry: outcome counters accumulate per (scheme,
// pattern, outcome); throughput and convergence gauges track the most
// recent evaluation, a column's rates shared by all its schemes. All
// updates happen per pattern class or per worker batch — never inside
// the per-trial loop — so the hot path is untouched.
var (
	mOutcomes = obs.NewCounter("evalmc_outcomes_total",
		"Decode outcomes observed by the evaluator.", "scheme", "pattern", "outcome")
	mTrialRate = obs.NewGauge("evalmc_trials_per_sec",
		"Aggregate sampling throughput of the latest evaluation.", "scheme", "pattern")
	mWorkerRate = obs.NewGauge("evalmc_worker_trials_per_sec",
		"Per-worker sampling throughput of the latest evaluation.", "scheme", "pattern", "worker")
	mConvergence = obs.NewGauge("evalmc_sdc_ci_halfwidth",
		"Half-width of the 95% Wilson interval of the SDC fraction (convergence).",
		"scheme", "pattern")
)

// Options configures an evaluation run.
type Options struct {
	// Seed makes sampled patterns reproducible.
	Seed int64
	// Samples3b, SamplesBeat and SamplesEntry set the Monte-Carlo sample
	// counts for the non-enumerable classes. Zero selects the defaults
	// (200k each).
	Samples3b, SamplesBeat, SamplesEntry int
	// Data is the payload to protect; the zero value is fine for linear
	// codes.
	Data [bitvec.DataBytes]byte
	// Parallel evaluates the pattern columns concurrently through the
	// campaign engine. Every column draws from its own sampler streams,
	// so the results are identical to a sequential run.
	Parallel bool
	// Shards is the number of deterministic sampler streams a sampled
	// pattern class is split into, each run by its own goroutine; zero
	// means one stream. The streams, and therefore the results, depend
	// only on Shards, never on GOMAXPROCS or Parallel.
	Shards int
	// Ctx, when non-nil, makes the evaluation cancellable: EvaluateAllCtx
	// stops between pattern columns and (for sampled classes) between
	// worker batches, returning the context error. A column still running
	// at cancellation is dropped with all its cells; partial pattern
	// classes are never reported.
	Ctx context.Context
	// Progress, when set, is called for each (scheme, pattern) cell once
	// its column finishes, in scheme order within the column. Calls never
	// overlap.
	Progress func(scheme string, p errormodel.Pattern, r PatternResult)
	// ErrTransform, when set, maps every raw error mask through a
	// data-independent transformation before the schemes decode it — the
	// on-die ECC stage's error distortion (ondie.Stage.TransformMask).
	// It is called once per trial of a column, however many schemes
	// decode the trial. The sampler streams are untouched (the transform
	// applies after sampling), so a nil transform reproduces today's
	// golden results byte-identically and a non-nil one evaluates the
	// same raw trial set as observed past the die. Must be pure and safe
	// for concurrent use.
	ErrTransform func(bitvec.V288) bitvec.V288
}

func (o *Options) defaults() {
	if o.Samples3b <= 0 {
		o.Samples3b = 200_000
	}
	if o.SamplesBeat <= 0 {
		o.SamplesBeat = 200_000
	}
	if o.SamplesEntry <= 0 {
		o.SamplesEntry = 200_000
	}
	if o.Shards <= 0 {
		o.Shards = 1
	}
}

// PatternResult holds outcome counts for one scheme on one pattern class.
type PatternResult struct {
	Pattern    errormodel.Pattern
	Exhaustive bool
	N          int
	DCE, DUE   int
	SDC        int
}

// FracDCE returns the corrected fraction.
func (r PatternResult) FracDCE() float64 { return frac(r.DCE, r.N) }

// FracDUE returns the detected-uncorrected fraction.
func (r PatternResult) FracDUE() float64 { return frac(r.DUE, r.N) }

// FracSDC returns the silent-data-corruption fraction.
func (r PatternResult) FracSDC() float64 { return frac(r.SDC, r.N) }

// SDCInterval returns the 95% Wilson interval of the SDC fraction.
func (r PatternResult) SDCInterval() (lo, hi float64) {
	return stats.WilsonInterval(r.SDC, r.N, 1.96)
}

func frac(k, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(k) / float64(n)
}

// SchemeResult holds a scheme's results across all pattern classes.
type SchemeResult struct {
	Scheme     string
	PerPattern [errormodel.NumPatterns]PatternResult
}

// Weighted combines the per-pattern results with the Table-1 mixture,
// producing the Fig. 8 stacked probabilities for one random event.
type Weighted struct {
	Scheme        string
	DCE, DUE, SDC float64
}

// Weighted returns the Table-1-weighted event outcome probabilities.
func (sr SchemeResult) Weighted() Weighted {
	return sr.WeightedWith(errormodel.Table1)
}

// WeightedWith combines the per-pattern results with caller-supplied
// pattern probabilities — e.g. the probabilities *measured* by a
// simulated beam campaign (closing the characterization→mitigation loop)
// instead of the paper's published Table 1. The weights are normalized
// before use.
func (sr SchemeResult) WeightedWith(weights [errormodel.NumPatterns]float64) Weighted {
	total := 0.0
	for _, p := range weights {
		total += p
	}
	if total <= 0 {
		total = 1
	}
	w := Weighted{Scheme: sr.Scheme}
	for p := errormodel.Bit1; p < errormodel.NumPatterns; p++ {
		r := sr.PerPattern[p]
		prob := weights[p] / total
		w.DCE += prob * r.FracDCE()
		w.DUE += prob * r.FracDUE()
		w.SDC += prob * r.FracSDC()
	}
	return w
}

// Evaluate runs the full per-pattern evaluation of one scheme.
func Evaluate(s core.Scheme, opts Options) SchemeResult {
	return EvaluateAll([]core.Scheme{s}, opts)[0]
}

// EvaluateCell evaluates a single (scheme, pattern) cell: a pattern
// column over one scheme. Every scheme of a column decodes the same
// deterministic trial stream, so the full grid can be evaluated in any
// order and merged into a result bit-identical to a sequential
// EvaluateAll with the same options (TestColumnMatchesCells locks this).
// The Progress hook is ignored; cancellation mid-cell returns the
// context error and drops the partial counts (they would bias the
// estimator).
func EvaluateCell(s core.Scheme, p errormodel.Pattern, opts Options) (PatternResult, error) {
	opts.defaults()
	rs, err := evaluateColumn([]core.Scheme{s}, []bitvec.V288{s.Encode(opts.Data)}, p, opts)
	if err != nil {
		return PatternResult{}, err
	}
	return rs[0], nil
}

// CellTrials returns the number of trials cell (·, p) will run under
// opts: the enumerable class size, or the configured sample count.
func CellTrials(p errormodel.Pattern, opts Options) int {
	opts.defaults()
	if n := errormodel.EnumerableCount(p); n >= 0 {
		return n
	}
	switch p {
	case errormodel.Beat1:
		return opts.SamplesBeat
	case errormodel.Entry1:
		return opts.SamplesEntry
	default:
		return opts.Samples3b
	}
}

// recordPattern publishes one pattern class's results to the registry.
func recordPattern(scheme string, r PatternResult, elapsed time.Duration) {
	pat := r.Pattern.String()
	mOutcomes.With(scheme, pat, "dce").Add(uint64(r.DCE))
	mOutcomes.With(scheme, pat, "due").Add(uint64(r.DUE))
	mOutcomes.With(scheme, pat, "sdc").Add(uint64(r.SDC))
	if sec := elapsed.Seconds(); sec > 0 {
		mTrialRate.With(scheme, pat).Set(float64(r.N) / sec)
	}
	lo, hi := r.SDCInterval()
	mConvergence.With(scheme, pat).Set((hi - lo) / 2)
}

func classifyOutcome(s core.Scheme, wire, e bitvec.V288) ecc.Outcome {
	wr := s.DecodeWire(wire.Xor(e))
	if wr.Status == ecc.Detected {
		return ecc.DUE
	}
	if wr.Wire == wire {
		return ecc.DCE
	}
	return ecc.SDC
}

// decodeBatchSize is the number of trials handed to one BatchDecoder
// call: large enough to amortize interface dispatch out of the per-trial
// path, small enough that the pending buffers stay cache-resident
// (2 × 256 × 40 B ≈ 20 KB per scheme and worker).
const decodeBatchSize = 256

// batchClassifier accumulates error patterns against one encoded entry
// and classifies decode outcomes through the scheme's batch decoder
// (core.AsBatchDecoder), which alone decides how the scheme batches.
// Trials are buffered in add and flushed a batch at a time; call flush
// before reading the counters. Buffering never reorders trials, so
// sampler streams — and therefore the golden master — do not depend on
// the batch size. Not safe for concurrent use — each evaluator worker
// owns one per scheme.
type batchClassifier struct {
	wire bitvec.V288
	dec  core.BatchDecoder
	recv [decodeBatchSize]bitvec.V288
	res  [decodeBatchSize]core.WireResult
	n    int

	dce, due, sdc int
}

func newBatchClassifier(s core.Scheme, wire bitvec.V288) *batchClassifier {
	return &batchClassifier{wire: wire, dec: core.AsBatchDecoder(s)}
}

func (b *batchClassifier) add(e bitvec.V288) {
	b.recv[b.n] = b.wire.Xor(e)
	b.n++
	if b.n == decodeBatchSize {
		b.flush()
	}
}

func (b *batchClassifier) flush() {
	if b.n == 0 {
		return
	}
	b.dec.DecodeWireBatch(b.recv[:b.n], b.res[:b.n])
	for i := 0; i < b.n; i++ {
		switch {
		case b.res[i].Status == ecc.Detected:
			b.due++
		case b.res[i].Wire == b.wire:
			b.dce++
		default:
			b.sdc++
		}
	}
	b.n = 0
}

// cancelCheckStride bounds how many trials a worker runs between context
// checks; small enough for sub-second cancellation latency, large enough
// to keep the hot loop branch-free in practice.
const cancelCheckStride = 4096

// evaluateColumn evaluates pattern class p for every scheme, schemes[i]
// storing wires[i]. Each trial is drawn once — by one Enumerate pass,
// or by one sampler stream per shard — passed through ErrTransform once,
// and decoded by every scheme, so the schemes share their trials (common
// random numbers) and a column costs one draw per trial, not one per
// scheme. The streams are seeded without a scheme term, so each scheme's
// result is the one EvaluateCell gives for it alone. It returns one
// result per scheme, or the context error if cancelled mid-class.
func evaluateColumn(schemes []core.Scheme, wires []bitvec.V288, p errormodel.Pattern, opts Options) ([]PatternResult, error) {
	start := time.Now()
	n := CellTrials(p, opts)
	exhaustive := errormodel.EnumerableCount(p) >= 0
	// The shard count fixes the sampler stream split, and therefore the
	// exact trial sequence; an enumerated class is one stream.
	shards := 1
	if !exhaustive {
		shards = min(opts.Shards, n)
	}
	classifiers := make([][]*batchClassifier, shards)
	drawn := make([]int, shards)
	var wg sync.WaitGroup
	per := n / shards
	for w := range shards {
		quota := per
		if w == shards-1 {
			quota = n - per*(shards-1)
		}
		bcs := make([]*batchClassifier, len(schemes))
		for i, s := range schemes {
			bcs[i] = newBatchClassifier(s, wires[i])
		}
		classifiers[w] = bcs
		add := func(e bitvec.V288) {
			if opts.ErrTransform != nil {
				e = opts.ErrTransform(e)
			}
			for _, bc := range bcs {
				bc.add(e)
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			shardStart := time.Now()
			if exhaustive {
				errormodel.Enumerate(p, add)
				drawn[w] = n
			} else {
				// Distinct deterministic stream per shard and pattern. The
				// batch classifiers buffer trials without reordering them,
				// so the RNG consumption (and hence every sampled pattern)
				// is identical to the pre-batching evaluator.
				smp := errormodel.NewSampler(opts.Seed + int64(w)*1_000_003 + int64(p)*7_919)
				i := 0
				for ; i < quota; i++ {
					if opts.Ctx != nil && i%cancelCheckStride == 0 && opts.Ctx.Err() != nil {
						break
					}
					add(smp.Sample(p))
				}
				drawn[w] = i
			}
			for _, bc := range bcs {
				bc.flush()
			}
			if sec := time.Since(shardStart).Seconds(); sec > 0 && !exhaustive {
				for _, s := range schemes {
					mWorkerRate.With(s.Name(), p.String(), strconv.Itoa(w)).
						Set(float64(drawn[w]) / sec)
				}
			}
		}()
	}
	wg.Wait()

	total := 0
	for _, d := range drawn {
		total += d
	}
	if total != n {
		// Cancelled mid-class: the partial counts would bias the
		// estimator, so they are dropped.
		return nil, opts.Ctx.Err()
	}
	out := make([]PatternResult, len(schemes))
	elapsed := time.Since(start)
	for i, s := range schemes {
		r := PatternResult{Pattern: p, Exhaustive: exhaustive, N: n}
		for _, bcs := range classifiers {
			r.DCE += bcs[i].dce
			r.DUE += bcs[i].due
			r.SDC += bcs[i].sdc
		}
		out[i] = r
		recordPattern(s.Name(), r, elapsed)
	}
	return out, nil
}

// EvaluateAll evaluates every scheme in order.
func EvaluateAll(schemes []core.Scheme, opts Options) []SchemeResult {
	out, _ := EvaluateAllCtx(schemes, opts)
	return out
}

// EvaluateAllCtx evaluates the scheme x pattern grid through the
// campaign engine, with cancellation. The evaluated unit is a pattern
// column (see evaluateColumn): one campaign cell per pattern, whose
// trials every scheme decodes. Progress is called for each (scheme,
// pattern) cell, in scheme order, when its column finishes. It returns
// one result per scheme, in order. On cancellation only the columns
// completed so far are populated, and it returns the context error.
func EvaluateAllCtx(schemes []core.Scheme, opts Options) ([]SchemeResult, error) {
	opts.defaults()
	out := make([]SchemeResult, len(schemes))
	wires := make([]bitvec.V288, len(schemes))
	for i, s := range schemes {
		out[i].Scheme = s.Name()
		wires[i] = s.Encode(opts.Data)
	}
	cols := make([]campaign.Cell[errormodel.Pattern], errormodel.NumPatterns)
	for p := range cols {
		cols[p].Col = errormodel.Pattern(p)
	}
	var progress func(string, errormodel.Pattern, []PatternResult)
	if opts.Progress != nil {
		progress = func(_ string, p errormodel.Pattern, rs []PatternResult) {
			for i, s := range schemes {
				opts.Progress(s.Name(), p, rs[i])
			}
		}
	}

	span := obs.DefaultTracer.Start("evalmc.evaluate")
	defer span.Finish()
	done, err := campaign.Run(opts.Ctx, cols, opts.Parallel, progress, func(c int) ([]PatternResult, error) {
		p := cols[c].Col
		ps := span.Child("pattern")
		ps.SetAttr("pattern", p.String())
		ps.SetAttr("schemes", strconv.Itoa(len(schemes)))
		defer ps.Finish()
		return evaluateColumn(schemes, wires, p, opts)
	})
	for _, d := range done {
		for i, r := range d.Result {
			out[i].PerPattern[cols[d.Index].Col] = r
		}
	}
	return out, err
}

// Table2Row formats one scheme's SDC risk per pattern the way Table 2
// reads: "C" for always-corrected, "D" for always detected-or-corrected
// with zero SDC and zero correction... strictly the paper marks "C" when
// the whole class is corrected and "D" when the whole class is detected;
// mixed classes show the SDC percentage.
type Table2Row struct {
	Scheme string
	Cells  [errormodel.NumPatterns]string
}

// FormatTable2 renders per-pattern cells: "C" (all corrected), "D" (all
// detected or corrected, no SDC), or the SDC percentage.
func FormatTable2(res []SchemeResult) []Table2Row {
	rows := make([]Table2Row, len(res))
	for i, sr := range res {
		rows[i].Scheme = sr.Scheme
		for p := errormodel.Bit1; p < errormodel.NumPatterns; p++ {
			r := sr.PerPattern[p]
			switch {
			case r.DCE == r.N:
				rows[i].Cells[p] = "C"
			case r.SDC == 0:
				rows[i].Cells[p] = "D"
			default:
				rows[i].Cells[p] = fmt.Sprintf("%.4f%%", r.FracSDC()*100)
			}
		}
	}
	return rows
}

// SDCReduction returns how many orders of magnitude scheme res improves on
// base in weighted SDC probability (the paper's headline metric).
func SDCReduction(base, res Weighted) float64 {
	if res.SDC <= 0 {
		return math.Inf(1)
	}
	return math.Log10(base.SDC / res.SDC)
}

// DUEReduction returns the ratio of weighted uncorrectable-error
// probability between base and res (the paper reports TrioECC reducing
// DUEs by 7.87× over SEC-DED... strictly over DuetECC's DUE rate; both
// ratios are reported by the benchmarks).
func DUEReduction(base, res Weighted) float64 {
	if res.DUE <= 0 {
		return math.Inf(1)
	}
	return base.DUE / res.DUE
}
