package workload

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"time"

	"hbm2ecc/internal/campaign"
	"hbm2ecc/internal/core"
	"hbm2ecc/internal/faults"
	"hbm2ecc/internal/gpusim"
	"hbm2ecc/internal/hbm2"
	"hbm2ecc/internal/xrand"
)

// NoECC is the scheme name for runs with DRAM ECC disabled (reads
// return raw device data) — the paper's beam-campaign configuration and
// the baseline every scheme is compared against.
const NoECC = "none"

// DefaultSchemes are the configurations the outcome tables compare: no
// protection, the paper's two proposed schemes, and the symbol-based
// organization that trades pin correction for stronger symbols.
func DefaultSchemes() []string {
	return []string{NoECC, "DuetECC", "TrioECC", "SSC-DSD+"}
}

// SchemeFor resolves a campaign scheme name: NoECC maps to a nil
// core.Scheme (ECC disabled), everything else goes through the core
// registry.
func SchemeFor(name string) (core.Scheme, error) {
	if name == NoECC {
		return nil, nil
	}
	return core.SchemeByName(name)
}

// Options configures a workload campaign.
type Options struct {
	// Seed makes every run reproducible; each (scheme, kernel) cell
	// derives an independent stream from it.
	Seed int64
	// Runs is the number of fault-injection runs per cell (default 400).
	Runs int
	// Schemes and Kernels select the campaign grid; empty selects
	// DefaultSchemes and all kernels.
	Schemes []string
	Kernels []Kernel
	// Parallel evaluates cells concurrently through the campaign engine
	// (each cell's stream is independent, so results are identical to a
	// sequential run).
	Parallel bool
	// Progress, when set, is called after each evaluated cell. Calls
	// never overlap.
	Progress func(scheme string, k Kernel, r CellResult)
}

func (o *Options) defaults() {
	if o.Runs <= 0 {
		o.Runs = 400
	}
	if len(o.Schemes) == 0 {
		o.Schemes = DefaultSchemes()
	}
	if len(o.Kernels) == 0 {
		o.Kernels = Kernels()
	}
}

// CellResult is the outcome ledger of one (scheme, kernel) cell: per-run
// outcomes in run order plus the per-source marginals the FIT arithmetic
// needs. Cells are byte-identical across cell orders and concurrent
// campaigns.
type CellResult struct {
	Scheme string `json:"scheme"`
	Kernel Kernel `json:"kernel"`
	Runs   int    `json:"runs"`
	// TotalOps is the kernel's deterministic per-run op count (setup +
	// compute + readback) — the injection timeline's length.
	TotalOps int64 `json:"total_ops"`
	// Outcomes counts runs per outcome, indexed by Outcome.
	Outcomes [NumOutcomes]int `json:"outcomes"`
	// BySource breaks the outcome counts down by fault source.
	BySource [faults.NumSources][NumOutcomes]int `json:"by_source"`
	// Ledger is the per-run outcome sequence in run order.
	Ledger []Outcome `json:"ledger"`
}

// Frac returns the fraction of runs with outcome o.
func (r CellResult) Frac(o Outcome) float64 {
	if r.Runs == 0 {
		return 0
	}
	return float64(r.Outcomes[o]) / float64(r.Runs)
}

// FIT returns the end-to-end failure rate per outcome, in events per
// 10^9 device-hours: FIT(o) = sum over sources s of fit[s] * P(o|s),
// with P(o|s) measured from the cell's per-source run counts. Because
// sources are drawn proportionally to the same fit weights, every
// source's estimate is backed by a proportional share of the runs.
func (r CellResult) FIT(fit [faults.NumSources]float64) [NumOutcomes]float64 {
	var out [NumOutcomes]float64
	for s := faults.Source(0); s < faults.NumSources; s++ {
		n := 0
		for o := Outcome(0); o < NumOutcomes; o++ {
			n += r.BySource[s][o]
		}
		if n == 0 {
			continue
		}
		for o := Outcome(0); o < NumOutcomes; o++ {
			out[o] += fit[s] * float64(r.BySource[s][o]) / float64(n)
		}
	}
	return out
}

// cellSeed derives the cell's independent stream from the campaign seed
// — FNV-1a over the cell coordinates mixed with the seed, so adding or
// reordering cells never shifts another cell's stream.
func cellSeed(seed int64, scheme string, k Kernel) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%s", scheme, k)
	return seed ^ int64(h.Sum64())
}

// splitmix64 is the per-run seed expander (SplitMix64 finalizer): runs
// within a cell get decorrelated rng streams from consecutive indices.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// workloadConfig is the simulated device the kernels run on: one HBM2
// stack is far larger than any kernel arena and keeps per-run device
// construction cheap.
var workloadConfig = hbm2.Config{Stacks: 1}

// RunCell evaluates one (scheme, kernel) cell: Runs fault-injection
// runs, each with exactly one fault event drawn from the FIT-weighted
// source mixture on a device reset to its unfaulted state.
func RunCell(scheme string, k Kernel, opts Options) (CellResult, error) {
	opts.defaults()
	sch, err := SchemeFor(scheme)
	if err != nil {
		return CellResult{}, err
	}
	tr, err := dryRun(k, opts.Seed)
	if err != nil {
		return CellResult{}, err
	}
	return runCell(scheme, sch, k, tr, opts), nil
}

// runCell is RunCell with the scheme already resolved from its name and
// the kernel's trace already recorded.
func runCell(scheme string, sch core.Scheme, k Kernel, tr *trace, opts Options) CellResult {
	start := time.Now()
	seed := cellSeed(opts.Seed, scheme, k)
	dec := newDecider(sch, tr)

	res := CellResult{Scheme: scheme, Kernel: k, TotalOps: tr.ops,
		Ledger: make([]Outcome, 0, opts.Runs)}
	var bySrc [faults.NumSources]int
	decided := 0
	// One generator serves the cell: each run reseeds it, which is as
	// cheap as a few stores and yields rand.NewSource's stream.
	rng := xrand.New(0)
	for r := 0; r < opts.Runs; r++ {
		rng.Seed(int64(splitmix64(uint64(seed) + uint64(r))))
		outcome, src, ok := runOne(dec, k, rng)
		res.Runs++
		res.Outcomes[outcome]++
		res.BySource[src][outcome]++
		res.Ledger = append(res.Ledger, outcome)
		bySrc[src]++
		if ok {
			decided++
		}
	}

	// Publish telemetry once per cell — the hot loop stays untouched.
	for o := Outcome(0); o < NumOutcomes; o++ {
		if res.Outcomes[o] > 0 {
			mRuns.With(k.String(), scheme, o.String()).Add(uint64(res.Outcomes[o]))
		}
	}
	mDecided.With(k.String(), scheme).Add(uint64(decided))
	for s := faults.Source(0); s < faults.NumSources; s++ {
		if bySrc[s] > 0 {
			mInjected.With(s.String()).Add(uint64(bySrc[s]))
		}
	}
	if sec := time.Since(start).Seconds(); sec > 0 {
		mRunRate.With(k.String(), scheme).Set(float64(res.Runs) / sec)
	}
	return res
}

// dryRun executes the kernel once with no faults and ECC off, recording
// the access trace every run of the kernel shares under every scheme,
// and verifies the device path reproduces the golden output. Kernels are
// data-oblivious, so the inputs drawn from seed do not change the trace;
// and an unfaulted load never reaches a scheme's codec, so a dry run
// under ECC would check nothing more.
func dryRun(k Kernel, seed int64) (*trace, error) {
	if !k.Valid() {
		return nil, fmt.Errorf("workload: invalid kernel %d", int(k))
	}
	rng := rand.New(rand.NewSource(seed))
	m := NewMemory(gpusim.New(workloadConfig, nil))
	m.trace = &trace{}
	inst := newInstance(k, rng, m)
	inst.run(m)
	got := m.ReadOut(inst.out)
	if classifyOutput(k, inst.golden, got) != Masked {
		return nil, fmt.Errorf("workload: %s dry run diverged from golden output", k)
	}
	if m.trace.arena != m.next {
		return nil, fmt.Errorf("workload: %s allocates after its first access", k)
	}
	m.trace.ops = m.Ops()
	return m.trace, nil
}

// drawSource picks the run's fault source from the FIT-weighted mixture
// faults.DefaultSourceFIT.
func drawSource(rng *rand.Rand) faults.Source {
	fit := &faults.DefaultSourceFIT
	total := 0.0
	for _, f := range fit {
		total += f
	}
	x := rng.Float64() * total
	for s := faults.Source(0); s < faults.NumSources; s++ {
		x -= fit[s]
		if x < 0 {
			return s
		}
	}
	return faults.SourceDRAM
}

// runOne executes one fault-injection run: draw the source and strike
// op, resolve non-DRAM detected/fatal events from the source profile
// (they are scheme-independent by construction), and simulate everything
// else — DRAM events through the device and ECC decode path, cache
// poison through a post-decode bit flip — classifying the output against
// the golden result. A DRAM event is drawn before the kernel runs, and
// when d settles the run from the cell's trace the kernel is not
// executed; decided reports that.
func runOne(d *decider, k Kernel, rng *rand.Rand) (o Outcome, src faults.Source, decided bool) {
	src = drawSource(rng)
	strikeOp := rng.Int63n(d.tr.ops)

	if src != faults.SourceDRAM {
		p := faults.DefaultProfiles[src]
		x := rng.Float64()
		switch {
		case x < p.PDetected:
			return DUE, src, false
		case x < p.PDetected+p.PCrash:
			return Crash, src, false
		}
		// Silent share: corrupted data continues into the pipeline past
		// any DRAM ECC. Its application outcome is simulated.
		poisonBit := rng.Intn(32)
		return simulate(d.mem, k, rng, strikeOp, poisonBit, faults.Event{}), src, false
	}
	d.inj.Reseed(rng.Int63())
	ev := d.inj.RandomEventIn(0, d.tr.arena)
	if o, ok := d.decide(ev, strikeOp); ok {
		return o, src, true
	}
	return simulate(d.mem, k, rng, strikeOp, -1, ev), src, false
}

// simulate executes one run in full on m, reset first: the kernel's
// inputs are drawn from rng, and either cache poison of poisonBit
// (when >= 0) or the DRAM event ev strikes before op strikeOp.
func simulate(m *Memory, k Kernel, rng *rand.Rand, strikeOp int64, poisonBit int, ev faults.Event) Outcome {
	m.reset()
	if poisonBit >= 0 {
		m.SchedulePoison(strikeOp, poisonBit)
	} else {
		m.ScheduleDRAM(strikeOp, ev)
	}
	inst := newInstance(k, rng, m)
	inst.run(m)
	got := m.ReadOut(inst.out)
	if m.Failed() {
		return DUE
	}
	return classifyOutput(k, inst.golden, got)
}

// Campaign evaluates the full scheme x kernel grid in spec order
// through the campaign engine. With Parallel, cells evaluate
// concurrently; each draws from its own stream, so the merged result is
// identical to a sequential run.
func Campaign(opts Options) ([]CellResult, error) {
	opts.defaults()
	// Schemes are safe for concurrent use, so one build serves every
	// kernel's cell.
	schemes := make(map[string]core.Scheme, len(opts.Schemes))
	for _, s := range opts.Schemes {
		sch, err := SchemeFor(s)
		if err != nil {
			return nil, err
		}
		schemes[s] = sch
	}
	// One dry run per kernel serves all its cells, recorded by the
	// first cell that needs it; the trace is read-only afterwards.
	traces := make(map[Kernel]func() (*trace, error), len(opts.Kernels))
	for _, k := range opts.Kernels {
		traces[k] = sync.OnceValues(func() (*trace, error) { return dryRun(k, opts.Seed) })
	}
	var cells []campaign.Cell[Kernel]
	for _, s := range opts.Schemes {
		for _, k := range opts.Kernels {
			cells = append(cells, campaign.Cell[Kernel]{Row: s, Col: k})
		}
	}
	// A workload campaign is not cancellable: at its defaults it runs in
	// a fraction of a second, so an interrupted one is rerun.
	done, err := campaign.Run(context.Background(), cells, opts.Parallel, opts.Progress,
		func(i int) (CellResult, error) {
			c := cells[i]
			tr, err := traces[c.Col]()
			if err != nil {
				return CellResult{}, err
			}
			return runCell(c.Row, schemes[c.Row], c.Col, tr, opts), nil
		})
	out := make([]CellResult, len(done))
	for i, d := range done {
		out[i] = d.Result
	}
	return out, err
}
