package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"time"

	"hbm2ecc/internal/beam"
	"hbm2ecc/internal/bitvec"
	"hbm2ecc/internal/classify"
	"hbm2ecc/internal/core"
	"hbm2ecc/internal/dram"
	"hbm2ecc/internal/ecc"
	"hbm2ecc/internal/errormodel"
	"hbm2ecc/internal/evalmc"
	"hbm2ecc/internal/experiments"
	"hbm2ecc/internal/fieldsim"
	"hbm2ecc/internal/fleet"
	"hbm2ecc/internal/gpusim"
	"hbm2ecc/internal/hbm2"
	"hbm2ecc/internal/obs"
	"hbm2ecc/internal/ondie"
	"hbm2ecc/internal/workload"
)

// sizes fixes how much work one round of each job does. A round is one
// whole job; a run repeats rounds on the same inputs for its time budget.
type sizes struct {
	name        string
	charRuns    int     // beam-campaign runs per characterize leg
	evalSamples int     // Monte-Carlo samples per sampled pattern class
	wlRuns      int     // fault-injection runs per workload cell
	fleetNodes  int     // simulated fleet size
	fleetHours  float64 // simulated deployment
}

var (
	fullSize    = sizes{name: "full", charRuns: 60, evalSamples: 100_000, wlRuns: 60, fleetNodes: 10_000, fleetHours: 720}
	reducedSize = sizes{name: "reduced", charRuns: 12, evalSamples: 2_000, wlRuns: 6, fleetNodes: 400, fleetHours: 96}
)

const (
	// ondieStage is the on-die code of the characterize job's second leg
	// (the `ecceval -ondie` distortion pair).
	ondieStage = "hamming72"
	// evalShards pins the sampler stream split of ecc_eval. Options.Parallel
	// would derive it from GOMAXPROCS and change the results per machine.
	evalShards = 2
	// fleetScheme, fleetAccel: the fleet leg of cmd/bench.
	fleetScheme = "NI:SEC-DED"
	fleetAccel  = 2000
	// fleetCrashReportProb keeps every node crash silent (lease expiry
	// only). A crash report drains the events its node observed later in
	// the same tick, the coordinator refuses the frame as malformed, and
	// the outbox retries it until the run ends: at some seeds one frame
	// is never delivered. Zero would select the 0.5 default.
	fleetCrashReportProb = 1e-12
)

// result is one round's checked output.
type result struct {
	input  int    // which of the job's input sets the round ran
	ops    int    // units of work: device reads, trials, kernel runs, reports
	digest string // sha256 of the simulated results
	// paperErr is the largest absolute deviation, in percentage points,
	// from the paper values the job reproduces; NaN when it has none.
	paperErr float64
	// layers holds the job's per-layer metrics of a traced round.
	layers map[string]float64
	data   any // job-specific output, for the invariant checks
}

// job is one benchmark workload. inputs is the number of distinct input
// sets its rounds cycle through. setup builds the fixtures the next round
// uses. round runs the job once on input set input (tr is nil when
// tracing is off) and returns a function that summarizes the output,
// which the caller runs after it stops the clock. check verifies the
// invariants that hold at every seed.
type job interface {
	inputs() int
	setup() error
	round(input int, tr *tracer, root spanID) (func() *result, error)
	check(r *result) error
}

var workloadNames = []string{"characterize", "ecc_eval", "workload_campaign", "fleet_run"}

func newJob(name string, seed int64, sz sizes) (job, error) {
	switch name {
	case "characterize":
		return &characterize{seed: seed, sz: sz}, nil
	case "ecc_eval":
		return &eccEval{seed: seed, sz: sz}, nil
	case "workload_campaign":
		return &workloadCampaign{seed: seed, sz: sz}, nil
	case "fleet_run":
		return &fleetRun{seed: seed, sz: sz}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

func digestOf(v any) string {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err) // the digested values are plain structs
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// paperDev returns the largest |measured - paper| in percentage points
// over (measured fraction, paper percent) pairs.
func paperDev(pairs ...[2]float64) float64 {
	worst := 0.0
	for _, p := range pairs {
		worst = math.Max(worst, math.Abs(100*p[0]-p[1]))
	}
	return worst
}

// phaseTotals snapshots the program's own microbench phase timers.
func phaseTotals() map[string]float64 {
	out := map[string]float64{}
	for _, p := range obs.DefaultTracer.Phases() {
		out[p.Name] = p.Total.Seconds()
	}
	return out
}

// ---- characterize ----

// characterize is the characterization half of cmd/repro: the beam
// campaign then classification, run raw and again through an on-die
// stage on the same seed.
//
// How much work a campaign does depends on its seed: a beam schedule
// with a broad multi-entry event reads three times the entries of
// another. So the op is a device read, and successive rounds cycle
// through charInputs campaign seeds derived from the run's seed, so that
// the median round does not rest on one schedule. A seed's reads are
// counted on its first round, through pass-through stages, and that
// round is never timed: measured rounds run the raw leg without a stage
// and the on-die leg with the stage alone, as the program does.
type characterize struct {
	seed  int64
	sz    sizes
	stage *ondie.Stage
	reads map[int]int // device reads of each input set, both legs
}

const charInputs = 8

// readCounter sits between the device and its on-die stage and counts
// reads. With a nil inner stage it passes reads through unchanged, so
// the raw leg's output is that of a device without a stage.
type readCounter struct {
	inner dram.OnDieStage
	reads int
}

func (c *readCounter) ParityBits() int {
	if c.inner == nil {
		return 0
	}
	return c.inner.ParityBits()
}

func (c *readCounter) Parity(clean bitvec.V288) uint64 {
	if c.inner == nil {
		return 0
	}
	return c.inner.Parity(clean)
}

func (c *readCounter) Correct(clean, raw bitvec.V288, parityErr uint64) bitvec.V288 {
	c.reads++
	if c.inner == nil {
		return raw
	}
	return c.inner.Correct(clean, raw, parityErr)
}

// charLeg is one leg's digested output: event, record, class and
// Table-1 counts; side keeps the proportions for the direction check,
// reads the leg's device reads when they were counted.
type charLeg struct {
	Events  int                         `json:"events"`
	Records int                         `json:"records"`
	Classes [classify.NumClasses]int    `json:"classes"`
	Table1  [errormodel.NumPatterns]int `json:"table1"`
	Aligned int                         `json:"byte_aligned"`
	side    ondie.DistortionSide
	reads   int
}

type charOut struct {
	Seed      int64       `json:"seed"`
	Raw       charLeg     `json:"raw"`
	OnDie     charLeg     `json:"ondie"`
	Stage     ondie.Stats `json:"stage"`
	StageName string      `json:"stage_name"`
}

func (c *characterize) inputs() int { return charInputs }

func (c *characterize) setup() error {
	st, err := ondie.StageByName(ondieStage)
	if err != nil {
		return err
	}
	// The campaign builds its device and beam itself; the same
	// construction is timed here as part of the job's set-up.
	dev := dram.New(hbm2.V100(), dram.DefaultRefreshPeriod)
	dev.SetOnDie(st)
	beam.New(dev, beam.Config{Seed: c.seed, SEURatePerFlux: 1 / (5 * beam.ChipIRFlux)})
	c.stage = st
	if c.reads == nil {
		c.reads = map[int]int{}
	}
	return nil
}

// leg runs one campaign and its classification. With count set, the
// device reads go through a readCounter first.
func (c *characterize) leg(tr *tracer, root spanID, seed int64, label string, stage dram.OnDieStage, count bool) charLeg {
	var rc *readCounter
	if count {
		rc = &readCounter{inner: stage}
		stage = rc
	}
	cfg := experiments.CampaignConfig{Seed: seed, Runs: c.sz.charRuns, OnDie: stage}
	s := tr.begin("experiments.CampaignLogs", label, root)
	logs := experiments.CampaignLogs(cfg)
	tr.end(s)
	s = tr.begin("classify.Analyze", label, root)
	an := classify.Analyze(logs, classify.Options{})
	tr.end(s)

	leg := charLeg{Events: len(an.Events)}
	if rc != nil {
		leg.reads = rc.reads
	}
	for _, l := range logs {
		leg.Records += len(l.Records)
	}
	cb := an.ClassBreakdown()
	for i, p := range cb {
		leg.Classes[i] = p.K
	}
	t1 := an.Table1()
	for i, p := range t1 {
		leg.Table1[i] = p.K
	}
	ba := an.ByteAlignedFraction()
	leg.Aligned = ba.K
	leg.side = ondie.DistortionSide{Events: len(an.Events), Classes: cb, Table1: t1,
		ByteAligned: ba, MultiBit: an.MultiBitFraction(), Weights: an.Table1Weights()}
	return leg
}

func (c *characterize) round(input int, tr *tracer, root spanID) (func() *result, error) {
	out := charOut{Seed: c.seed + int64(input)*7_919}
	_, known := c.reads[input]
	before := phaseTotals()
	// The raw leg passes a nil stage: the device reads without one.
	out.Raw = c.leg(tr, root, out.Seed, "raw", nil, !known)
	c.stage.ResetStats()
	out.OnDie = c.leg(tr, root, out.Seed, ondieStage, c.stage, !known)
	out.Stage, out.StageName = c.stage.Stats(), ondieStage
	after := phaseTotals()
	if !known {
		c.reads[input] = out.Raw.reads + out.OnDie.reads
	}
	return func() *result {
		r := c.summarize(out, before, after, tr)
		r.input, r.ops = input, c.reads[input]
		if r.layers != nil {
			r.layers["dram.reads"] = float64(r.ops)
		}
		return r
	}, nil
}

func (c *characterize) summarize(out charOut, before, after map[string]float64, tr *tracer) *result {
	r := &result{digest: digestOf(out), data: out}
	// Paper values as cmd/repro prints them: Fig. 4a SBSE/MBME, Fig. 4c
	// byte-aligned share, Table 1 single bit/byte/entry.
	raw := out.Raw.side
	r.paperErr = paperDev(
		[2]float64{raw.Classes[classify.SBSE].P, 65}, [2]float64{raw.Classes[classify.MBME].P, 28},
		[2]float64{raw.ByteAligned.P, 74.6},
		[2]float64{raw.Table1[errormodel.Bit1].P, 73.98},
		[2]float64{raw.Table1[errormodel.Byte1].P, 22.56},
		[2]float64{raw.Table1[errormodel.Entry1].P, 2.23})
	if tr != nil {
		spans := tr.view()
		r.layers = map[string]float64{
			"microbench.evaluate_s":   after["evaluate"] - before["evaluate"],
			"microbench.read_scan_s":  after["read_scan"] - before["read_scan"],
			"microbench.write_pass_s": after["write_pass"] - before["write_pass"],
			"microbench.records":      float64(out.Raw.Records + out.OnDie.Records),
			"ondie.corrected":         float64(out.Stage.Corrected),
			"ondie.miscorrected":      float64(out.Stage.Miscorrected),
			"ondie.passed_through":    float64(out.Stage.PassedThrough),
			"ondie.undetected":        float64(out.Stage.Undetected),
			"classify.analyze_s":      sumSeconds(spans, "classify.Analyze", nil),
			"classify.events":         float64(out.Raw.Events + out.OnDie.Events),
		}
	}
	return r
}

// check: reads consume no randomness, so both legs see the same fault
// schedule and read the same entries; and the on-die leg must move the
// observed statistics in the documented direction (events absorbed,
// single-bit share not raised).
func (c *characterize) check(r *result) error {
	out := r.data.(charOut)
	if out.Raw.reads != out.OnDie.reads {
		return fmt.Errorf("seed %d: raw leg read %d entries, on-die leg %d", out.Seed, out.Raw.reads, out.OnDie.reads)
	}
	rep := ondie.DistortionReport{Stage: ondieStage, Seed: out.Seed, Runs: c.sz.charRuns,
		Raw: out.Raw.side, Distorted: out.OnDie.side, StageStats: out.Stage}
	return rep.CheckDirection()
}

// ---- ecc_eval ----

// eccEval is the Monte-Carlo ECC evaluation over the Table-2 schemes.
type eccEval struct {
	seed    int64
	sz      sizes
	schemes []core.Scheme
}

type cellCounts struct {
	N, DCE, DUE, SDC int
}

func (e *eccEval) opts() evalmc.Options {
	n := e.sz.evalSamples
	return evalmc.Options{Seed: e.seed, Samples3b: n, SamplesBeat: n, SamplesEntry: n, Shards: evalShards}
}

func (e *eccEval) inputs() int { return 1 }

func (e *eccEval) setup() error {
	e.schemes = core.Table2Schemes()
	return nil
}

func (e *eccEval) round(_ int, tr *tracer, root spanID) (func() *result, error) {
	opts := e.opts()
	sp := tr.begin("evalmc.EvaluateAll", "", root)
	if tr != nil {
		// EvaluateAll reports each (scheme, pattern) cell as it finishes,
		// in sequence: a cell's span runs from the previous report.
		last := time.Now()
		opts.Progress = func(_ string, _ errormodel.Pattern, r evalmc.PatternResult) {
			now := time.Now()
			kind := "sampled"
			if r.Exhaustive {
				kind = "exhaustive"
			}
			tr.add("evalmc.cell", kind, sp, last, now)
			last = now
		}
	}
	res := evalmc.EvaluateAll(e.schemes, opts)
	tr.end(sp)
	return func() *result { return e.summarize(res, tr) }, nil
}

func (e *eccEval) summarize(res []evalmc.SchemeResult, tr *tracer) *result {
	counts := make(map[string][errormodel.NumPatterns]cellCounts, len(res))
	trials := 0
	for _, sr := range res {
		var cc [errormodel.NumPatterns]cellCounts
		for p, pr := range sr.PerPattern {
			cc[p] = cellCounts{pr.N, pr.DCE, pr.DUE, pr.SDC}
			trials += pr.N
		}
		counts[sr.Scheme] = cc
	}
	r := &result{ops: trials, digest: digestOf(counts), data: res}
	// Fig. 8 as cmd/repro prints it: SEC-DED corrected and SDC, TrioECC
	// corrected, NI:SEC-2bEC SDC (Table2Schemes rows 0, 5 and 3).
	base, trio, ni2b := res[0].Weighted(), res[5].Weighted(), res[3].Weighted()
	r.paperErr = paperDev([2]float64{base.DCE, 74}, [2]float64{base.SDC, 5.4},
		[2]float64{trio.DCE, 97}, [2]float64{ni2b.SDC, 9.3})
	if tr != nil {
		spans := tr.view()
		only := func(kind string) func(string) bool { return func(l string) bool { return l == kind } }
		r.layers = map[string]float64{
			"evalmc.sampled_s":    sumSeconds(spans, "evalmc.cell", only("sampled")),
			"evalmc.exhaustive_s": sumSeconds(spans, "evalmc.cell", only("exhaustive")),
			"evalmc.trials":       float64(trials),
		}
	}
	return r
}

// checkSamples is the sub-sample size of the reference re-decode.
const checkSamples = 512

// check verifies the round's own counts, then re-decodes a sub-sample of
// its trials through each scheme's reference decoder.
//
// Every cell must hold the trials CellTrials promises, each with exactly
// one outcome. The evaluator's first shard draws the cell's first trials
// from errormodel.NewSampler(seed + pattern*7919), with or without
// sharding; the reference outcomes of the first checkSamples of them must
// equal what the evaluator itself gives for those trials (EvaluateCell
// with one shard and checkSamples samples), and their shares must lie
// within sampling error of the round's shares.
func (e *eccEval) check(r *result) error {
	res := r.data.([]evalmc.SchemeResult)
	if len(res) != len(e.schemes) {
		return fmt.Errorf("%d scheme results for %d schemes", len(res), len(e.schemes))
	}
	opts := e.opts()
	sub := evalmc.Options{Seed: e.seed, Samples3b: checkSamples, SamplesBeat: checkSamples,
		SamplesEntry: checkSamples, Shards: 1}
	for i, s := range e.schemes {
		sr := res[i]
		if sr.Scheme != s.Name() {
			return fmt.Errorf("result %d is %s, want %s", i, sr.Scheme, s.Name())
		}
		for p, pr := range sr.PerPattern {
			pat := errormodel.Pattern(p)
			if want := evalmc.CellTrials(pat, opts); pr.N != want || pr.DCE+pr.DUE+pr.SDC != pr.N {
				return fmt.Errorf("%s %s: N=%d DCE=%d DUE=%d SDC=%d, want N=%d with one outcome each",
					s.Name(), pat, pr.N, pr.DCE, pr.DUE, pr.SDC, want)
			}
		}
		ref, ok := s.(core.RefDecoder)
		if !ok {
			return fmt.Errorf("%s has no reference decoder", s.Name())
		}
		wire := s.Encode(sub.Data)
		for _, p := range []errormodel.Pattern{errormodel.Bits3, errormodel.Beat1, errormodel.Entry1} {
			smp := errormodel.NewSampler(e.seed + int64(p)*7_919)
			var want cellCounts
			for k := 0; k < checkSamples; k++ {
				wr := ref.DecodeWireRef(wire.Xor(smp.Sample(p)))
				want.N++
				switch {
				case wr.Status == ecc.Detected:
					want.DUE++
				case wr.Wire == wire:
					want.DCE++
				default:
					want.SDC++
				}
			}
			got, err := evalmc.EvaluateCell(s, p, sub)
			if err != nil {
				return err
			}
			if have := (cellCounts{got.N, got.DCE, got.DUE, got.SDC}); have != want {
				return fmt.Errorf("%s %s: evaluator %+v, reference decoder %+v", s.Name(), p, have, want)
			}
			pr := sr.PerPattern[p]
			for _, o := range []struct {
				name      string
				ref, full int
			}{{"DCE", want.DCE, pr.DCE}, {"DUE", want.DUE, pr.DUE}, {"SDC", want.SDC, pr.SDC}} {
				share := float64(o.full) / float64(pr.N)
				tol := 5*math.Sqrt(share*(1-share)/checkSamples) + 2.0/checkSamples
				if d := math.Abs(float64(o.ref)/checkSamples - share); d > tol {
					return fmt.Errorf("%s %s: %s share %.4f in the round, %.4f in the reference sub-sample",
						s.Name(), p, o.name, share, float64(o.ref)/checkSamples)
				}
			}
		}
	}
	return nil
}

// ---- workload_campaign ----

// workloadCampaign is the application-outcome campaign: the default
// schemes x the three kernels, cells in parallel.
type workloadCampaign struct {
	seed int64
	sz   sizes
}

func (w *workloadCampaign) inputs() int { return 1 }

func (w *workloadCampaign) opts() workload.Options {
	return workload.Options{Seed: w.seed, Runs: w.sz.wlRuns, Parallel: true}
}

// setup times what every cell builds before its runs: the scheme and a
// one-stack GPU carrying it.
func (w *workloadCampaign) setup() error {
	for _, name := range workload.DefaultSchemes() {
		sch, err := workload.SchemeFor(name)
		if err != nil {
			return err
		}
		gpusim.New(hbm2.Config{Stacks: 1}, sch)
	}
	return nil
}

// schemeKey names a workload scheme in metric names.
var schemeKey = map[string]string{
	workload.NoECC: "none", "DuetECC": "duet", "TrioECC": "trio", "SSC-DSD+": "ssc_dsd_plus",
}

func (w *workloadCampaign) round(_ int, tr *tracer, root spanID) (func() *result, error) {
	opts := w.opts()
	sp := tr.begin("workload.Campaign", "", root)
	if tr != nil {
		// Campaign starts every cell at once and reports each as it
		// finishes: a cell's span runs from the start of the campaign.
		start := time.Now()
		opts.Progress = func(scheme string, k workload.Kernel, _ workload.CellResult) {
			tr.add("workload.cell", k.String()+"/"+scheme, sp, start, time.Now())
		}
	}
	cells, err := workload.Campaign(opts)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	return func() *result { return summarizeCells(cells, tr) }, nil
}

func summarizeCells(cells []workload.CellResult, tr *tracer) *result {
	runs := 0
	var ops int64
	for _, c := range cells {
		runs += c.Runs
		ops += c.TotalOps * int64(c.Runs)
	}
	r := &result{ops: runs, digest: digestOf(cells), paperErr: math.NaN(), data: cells}
	if tr != nil {
		spans := tr.view()
		r.layers = map[string]float64{"workload.ops": float64(ops)}
		for _, k := range workload.Kernels() {
			r.layers["workload.cell_s."+k.String()] = sumSeconds(spans, "workload.cell",
				func(l string) bool { return strings.HasPrefix(l, k.String()+"/") })
		}
		for scheme, key := range schemeKey {
			r.layers["workload.cell_s."+key] = sumSeconds(spans, "workload.cell",
				func(l string) bool { return strings.HasSuffix(l, "/"+scheme) })
		}
	}
	return r
}

// check: one cell re-run on its own reproduces its ledger byte for byte.
func (w *workloadCampaign) check(r *result) error {
	cells := r.data.([]workload.CellResult)
	if len(cells) == 0 {
		return fmt.Errorf("campaign returned no cells")
	}
	i := int(uint64(w.seed) % uint64(len(cells)))
	again, err := workload.RunCell(cells[i].Scheme, cells[i].Kernel, w.opts())
	if err != nil {
		return err
	}
	a, _ := json.Marshal(cells[i])
	b, _ := json.Marshal(again)
	if string(a) != string(b) {
		return fmt.Errorf("cell %s/%s: re-run ledger differs from the campaign's", cells[i].Scheme, cells[i].Kernel)
	}
	return nil
}

// ---- fleet_run ----

// fleetRun is the field simulation against an in-memory coordinator.
// The WAL is left out: fsync on a shared disk would dominate the
// variance.
type fleetRun struct {
	seed   int64
	sz     sizes
	scheme core.Scheme
	coord  *fleet.Coordinator
}

func (f *fleetRun) inputs() int { return 1 }

func (f *fleetRun) setup() error {
	s, err := core.SchemeByName(fleetScheme)
	if err != nil {
		return err
	}
	f.scheme = s
	f.coord = fleet.NewCoordinator(fleet.CoordinatorOptions{MaxNodes: f.sz.fleetNodes + 64})
	return nil
}

// tracedReporter records a span around every report the simulation
// sends to the coordinator.
type tracedReporter struct {
	inner  fleet.Reporter
	tr     *tracer
	parent spanID
}

func (t tracedReporter) Report(ctx context.Context, req fleet.ReportRequest) (fleet.ReportResponse, error) {
	sp := t.tr.begin("fleet.Report", "", t.parent)
	resp, err := t.inner.Report(ctx, req)
	t.tr.end(sp)
	return resp, err
}

func (f *fleetRun) round(_ int, tr *tracer, root spanID) (func() *result, error) {
	cfg := fieldsim.FleetConfig{Scheme: f.scheme, Nodes: f.sz.fleetNodes, Hours: f.sz.fleetHours,
		Accel: fleetAccel, CrashReportProb: fleetCrashReportProb, Seed: f.seed}
	rep := f.coord.Loopback()
	sp := tr.begin("fieldsim.RunFleet", "", root)
	if tr != nil {
		rep = tracedReporter{inner: rep, tr: tr, parent: sp}
	}
	res, err := fieldsim.RunFleet(context.Background(), cfg, rep)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	return func() *result { return summarizeFleet(res, tr) }, nil
}

func summarizeFleet(res fieldsim.FleetResult, tr *tracer) *result {
	r := &result{ops: int(res.Reports), digest: digestOf(res), data: res}
	// The fleet decodes Table-1 events with SEC-DED: its outcome shares
	// reproduce Fig. 8's SEC-DED corrected and SDC bars.
	if res.RawEvents > 0 {
		n := float64(res.RawEvents)
		r.paperErr = paperDev([2]float64{float64(res.DCE) / n, 74}, [2]float64{float64(res.SDC) / n, 5.4})
	}
	if tr != nil {
		spans := tr.view()
		var lat []float64
		for _, s := range spans {
			if s.Name == "fleet.Report" {
				lat = append(lat, s.seconds()*1e6)
			}
		}
		busy := sumSeconds(spans, "fleet.Report", nil)
		r.layers = map[string]float64{
			"fleet.report_busy_s": busy,
			"fleet.report_p50_us": quantile(lat, 0.50),
			"fleet.report_p99_us": quantile(lat, 0.99),
			"fleet.reports":       float64(res.Reports),
			"fleet.xid_events":    float64(res.XidEvents),
			"fieldsim.sim_s":      sumSeconds(spans, "fieldsim.RunFleet", nil) - busy,
		}
	}
	return r
}

// check: on the in-memory coordinator every enqueued frame is delivered.
func (f *fleetRun) check(r *result) error {
	ob := r.data.(fieldsim.FleetResult).Outbox
	if ob.Sent != ob.Enqueued || ob.Drops != 0 {
		return fmt.Errorf("outbox sent %d of %d enqueued, %d dropped, %d failed sends", ob.Sent, ob.Enqueued, ob.Drops, ob.Failures)
	}
	return nil
}
