// Command perfbench is the repository benchmark. It runs one of four
// whole jobs of the reproduction for a fixed time, checks the simulated
// results, and prints every metric by name with its unit; the last line
// of its output is one JSON object.
//
//	perfbench --workload characterize --seed 2021 --seconds 15 --trace 0
//
// With --trace 0 it measures the end-to-end metrics: untraced rounds of
// the job, repeated on the same inputs, reported as medians. With
// --trace 1 it takes the per-layer metrics instead: it alternates
// untraced and traced rounds, where a traced round records a span around
// each call the benchmark makes into a layer's public functions and each
// cell the program reports through its Options.Progress hook, then
// probes single calls into every layer. Both kinds of round run the same
// program calls. Spans stay in memory and are written to --trace-dir when
// the run ends.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// defaultSeed is cmd/repro's seed; the output digests are pinned at it.
const defaultSeed = 2021

type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, on every workload. One op
// is a device read (characterize), a decode trial (ecc_eval), a kernel
// run (workload_campaign) or a coordinator report (fleet_run).
var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"setup_s", "s"},
}

// perLayer are the metrics of a traced run, on every workload. The job.*
// metrics are the workload's own job as a whole, from the untraced rounds
// of the traced run: bytes allocated per op, and the high-water mark of
// the live heap above what was live when the round started. They carry no bound because characterize's allocation follows its
// seed's fault schedule. A workload's own job supplies the metrics of the
// layers it calls; the layers of the other jobs come from one traced
// round of each at the reduced size, and the single-call probes from
// probeLayers.
var perLayer = []metricDef{
	{"job.alloc_kb_per_op", "KB"},
	{"job.peak_heap_mb", "MB"},
	{"microbench.evaluate_s", "s"},
	{"microbench.read_scan_s", "s"},
	{"microbench.write_pass_s", "s"},
	{"microbench.records", "count"},
	{"dram.reads", "count"},
	{"dram.read_raw_ns", "ns"},
	{"dram.read_ondie_ns", "ns"},
	{"dram.read_encoded_ns.binary", "ns"},
	{"dram.read_encoded_ns.symbol", "ns"},
	{"dram.rewrite_ns", "ns"},
	{"ondie.correct_ns", "ns"},
	{"ondie.corrected", "count"},
	{"ondie.miscorrected", "count"},
	{"ondie.passed_through", "count"},
	{"ondie.undetected", "count"},
	{"classify.analyze_s", "s"},
	{"classify.events", "count"},
	{"errormodel.sample_ns.bits3", "ns"},
	{"errormodel.sample_ns.beat1", "ns"},
	{"errormodel.sample_ns.entry1", "ns"},
	{"errormodel.alloc_bytes_per_sample.entry1", "B"},
	{"core.decode_batch_ns.binary", "ns"},
	{"core.decode_batch_ns.symbol", "ns"},
	{"core.encode_ns.binary", "ns"},
	{"core.encode_ns.symbol", "ns"},
	{"core.decode_ns.binary", "ns"},
	{"core.decode_ns.symbol", "ns"},
	{"core.build_s", "s"},
	{"evalmc.sampled_s", "s"},
	{"evalmc.exhaustive_s", "s"},
	{"evalmc.trials", "count"},
	{"workload.cell_s.gemm", "s"},
	{"workload.cell_s.reduction", "s"},
	{"workload.cell_s.dnn", "s"},
	{"workload.cell_s.none", "s"},
	{"workload.cell_s.duet", "s"},
	{"workload.cell_s.trio", "s"},
	{"workload.cell_s.ssc_dsd_plus", "s"},
	{"workload.ops", "count"},
	{"gpusim.read_ns.none", "ns"},
	{"gpusim.read_ns.binary", "ns"},
	{"gpusim.read_ns.symbol", "ns"},
	{"faults.event_ns", "ns"},
	{"fleet.report_busy_s", "s"},
	{"fleet.report_p50_us", "us"},
	{"fleet.report_p99_us", "us"},
	{"fleet.reports", "count"},
	{"fleet.xid_events", "count"},
	{"fieldsim.sim_s", "s"},
	{"trace.overhead_s", "s"},
	{"trace.coverage_pct", "%"},
}

// paperTol bounds a full-size job's paper deviation (percentage points)
// at any seed; it is a sanity bound on the science, wider than the seed
// spread. The default seed is held exactly by the pinned digests.
var paperTol = map[string]float64{"characterize": 35, "ecc_eval": 4, "fleet_run": 4}

// pinned are the sha256 digests of every simulated result at the
// default seed, per workload, size and input set.
var pinned = map[string]string{
	"characterize/full/0":         "6d6870a23984e20792270160ca4723e9166fd2923bbf903b7b7019d6e88dc3f4",
	"characterize/full/1":         "197894827689286904121b40ed290cbab7174b4baade9608f5dd1744a8266e34",
	"characterize/full/2":         "074438a5a5d17f3e76a37850f13bef2a30bc1d73d1ff708e75eb27a5b474d26c",
	"characterize/full/3":         "a9bc9270669c81388e4562e99e6b09df7d31d3f82dfa170b63afce86a2726ffd",
	"characterize/full/4":         "153e914c0bd042ef7be1130fe97d28306272999b828aea99e77e544709f54821",
	"characterize/full/5":         "87f7e48040abb9abb95c8fe2a4be3b8de29e63a2e8e2df38c75ac2c586f7c268",
	"characterize/full/6":         "1bf0b96ed0494b076f0a0e2bec17e1e3b177e14733f23b2c399e0fc2690ea244",
	"characterize/full/7":         "70a95828d160d92cff8b3cecf82a6c667205b467ac9e66337a6b1c7e8535d10d",
	"characterize/reduced/0":      "d94e83991d40716621d92a12e43ae878f42a4d147564496eb61c0965b4c4df72",
	"characterize/reduced/1":      "9b50775cc3b25e9add9acc98fa7796198df13dddc6366a9310865be52726deb7",
	"characterize/reduced/2":      "fadb4d3d16d6b64a9423fcf8cf558b75b732e3ecf87390fb29a044aa9915ca2c",
	"characterize/reduced/3":      "0637ff9177a8624f6b36361667cd1ce6fc4557f074502d50bab3c5dddf9b8d45",
	"characterize/reduced/4":      "824528846a430ce836010459f69274cb25042756da432adad93270432df22718",
	"characterize/reduced/5":      "656153f56908e455e284cfdb0ee4b5c13f3707897e6ccd5b3b65e93ecc3b226f",
	"characterize/reduced/6":      "e7b569ee705a2dcbe8948bd1994b92cf949dc383c6bd72a55f068e0670c5cb8d",
	"characterize/reduced/7":      "6846cfbc4bdca48e1cb67b9414a8e628c1a156658632a1c15e465bd331aec7db",
	"ecc_eval/full/0":             "795a4836782f4ecaa5829eb88ac03ad316974c35e4e729b1956cfce5083b645e",
	"ecc_eval/reduced/0":          "00b448b63c4d42ccc3f3b12356014fdf4cf65b47d6123e645e348668cfa9e5a5",
	"workload_campaign/full/0":    "669ed04ed5ce5a147dbca554b02a0d05ab7577b29f6ac0a99b02b3e4c95436d3",
	"workload_campaign/reduced/0": "10c2f1ecc52fc14bdb21b9012b30e1950d389201d10f8ec87b441e6d0d1e98b0",
	"fleet_run/full/0":            "ad4ec3475c7042ccd41fe405ec88e9d012b8fe9506c3fe11fde47b1f476166b7",
	"fleet_run/reduced/0":         "de95ca6ce5d6830d3efd611618b282a2a581e0acbacc00c286687f7c9aa8158e",
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceDir string
	sz       sizes
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	var cfg config
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: characterize, ecc_eval, workload_campaign or fleet_run")
	flag.Int64Var(&cfg.seed, "seed", defaultSeed, "seed the workload's inputs are made from")
	flag.IntVar(&seconds, "seconds", 20, "measured time per run")
	flag.IntVar(&trace, "trace", 0, "1 takes the per-layer metrics in a traced run")
	flag.StringVar(&cfg.traceDir, "trace-dir", ".bench_build/traces", "where a traced run writes its spans")
	flag.Parse()
	if seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	cfg.seconds, cfg.trace, cfg.sz = float64(seconds), trace == 1, fullSize
	// GOMAXPROCS at most the CPUs this process may run on.
	runtime.GOMAXPROCS(runtime.NumCPU())

	rep, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// roundStat is one measured round.
type roundStat struct {
	traced bool
	wall   float64 // s
	alloc  float64 // bytes allocated
	peak   float64 // MB, live-heap high-water mark
	res    *result
	cov    float64 // traced: share of wall time in named layers
}

// setupBatch is how many timed constructions precede each round;
// spreading them over the run keeps setup_s from resting on one moment
// of a shared machine.
const setupBatch = 5

// run executes one benchmark run and returns its report; human-readable
// lines go to w.
func run(cfg config, w io.Writer) (*report, error) {
	j, err := newJob(cfg.workload, cfg.seed, cfg.sz)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "perfbench: workload=%s seed=%d size=%s seconds=%g trace=%v GOMAXPROCS=%d %s\n",
		cfg.workload, cfg.seed, cfg.sz.name, cfg.seconds, cfg.trace, runtime.GOMAXPROCS(0), runtime.Version())

	rep := &report{Metrics: map[string]metricOut{}}
	fail := func(format string, args ...any) {
		rep.Failed++
		fmt.Fprintf(w, "CHECK FAILED: "+format+"\n", args...)
	}

	// Untimed warm-up: one check round on each input set. Its output is
	// checked against the pinned digest, the invariants that hold at every
	// seed, and the paper bound; later rounds on the set must reproduce it.
	digests := map[int]string{}
	for in := 0; in < j.inputs(); in++ {
		r, err := checkRound(j, in)
		if err != nil {
			return nil, err
		}
		rep.Attempted++
		checkOutput(cfg.workload, cfg.sz, cfg.seed, j, r, fail, w)
		digests[in] = r.digest
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer(fmt.Sprintf("%s-%d-%x", cfg.workload, cfg.seed, time.Now().UnixNano()))
	}
	var setups []float64
	var rounds []roundStat
	start := time.Now()
	for i := 0; time.Since(start).Seconds() < cfg.seconds || len(rounds) < 2; i++ {
		// Constructions start from a collected heap, so they do not pay
		// for the previous round's garbage.
		runtime.GC()
		for k := 0; k < setupBatch; k++ {
			t0 := time.Now()
			if err := j.setup(); err != nil {
				return nil, err
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
		// A traced run pairs an untraced and a traced round on each input
		// set, so their difference is the tracing overhead.
		input, t := i, (*tracer)(nil)
		if cfg.trace {
			input = i / 2
			if i%2 == 1 {
				t = tr
			}
		}
		st, err := measureRound(j, input%j.inputs(), t)
		if err != nil {
			return nil, err
		}
		rep.Attempted++
		if st.res.digest != digests[st.res.input] {
			fail("round %d output differs from the check round on the same inputs", i+1)
		}
		rounds = append(rounds, st)
	}

	plain := median(walls(rounds, false))
	fmt.Fprintf(w, "rounds=%d ops/round=%d untraced round wall median=%.3fs\n", len(rounds), rounds[0].res.ops, plain)
	fmt.Fprintf(w, "round walls (s): %.3f\n", walls(rounds, false))
	if cfg.trace {
		if err := layerMetrics(cfg, rep, rounds, tr, fail, w); err != nil {
			return nil, err
		}
	} else {
		var rate []float64
		for _, r := range rounds {
			rate = append(rate, float64(r.res.ops)/r.wall)
		}
		vals := map[string]float64{"ops_per_s": median(rate), "setup_s": median(setups)}
		for _, m := range endToEnd {
			rep.Metrics[m.name] = metricOut{vals[m.name], m.unit}
		}
	}
	for _, name := range sortedKeys(rep.Metrics) {
		m := rep.Metrics[name]
		fmt.Fprintf(w, "  %-42s %14.6g %s\n", name, m.Value, m.Unit)
	}
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// checkRound builds the job's fixtures and runs one untimed round on
// input set in.
func checkRound(j job, in int) (*result, error) {
	if err := j.setup(); err != nil {
		return nil, err
	}
	finish, err := j.round(in, nil, noSpan)
	if err != nil {
		return nil, err
	}
	return finish(), nil
}

// checkOutput applies the output checks to a check round of workload
// name at size sz.
func checkOutput(name string, sz sizes, seed int64, j job, r *result, fail func(string, ...any), w io.Writer) {
	key := fmt.Sprintf("%s/%s/%d", name, sz.name, r.input)
	if seed == defaultSeed {
		if want, ok := pinned[key]; !ok {
			fail("no pinned digest for %s (got %s)", key, r.digest)
		} else if r.digest != want {
			fail("%s digest %s, pinned %s", key, r.digest, want)
		}
	}
	if err := j.check(r); err != nil {
		fail("%s invariant: %v", key, err)
	}
	if !math.IsNaN(r.paperErr) {
		fmt.Fprintf(w, "%s paper_err_pp=%.3f (max |measured - paper|, percentage points)\n", key, r.paperErr)
		if tol, ok := paperTol[name]; ok && sz.name == fullSize.name && r.paperErr > tol {
			fail("%s deviates %.2fpp from the paper (bound %.0fpp)", key, r.paperErr, tol)
		}
	}
}

// measureRound runs one round from a fresh heap: fixtures first, then a
// GC, then the timed job with a live-heap sampler alongside. The peak is
// taken above the live heap after that GC, so it leaves out what the
// benchmark itself holds, such as the spans of earlier traced rounds. tr
// is nil for an untraced round.
func measureRound(j job, input int, tr *tracer) (roundStat, error) {
	if err := j.setup(); err != nil {
		return roundStat{}, err
	}
	tr.reset()
	runtime.GC()
	base := readLive()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	peak := startPeakSampler()
	root := tr.begin("bench.round", "", noSpan)
	t0 := time.Now()
	finish, err := j.round(input, tr, root)
	wall := time.Since(t0).Seconds()
	tr.end(root)
	runtime.ReadMemStats(&ms1)
	peakBytes := peak.stop()
	if err != nil {
		return roundStat{}, err
	}
	res := finish()
	st := roundStat{traced: tr != nil, wall: wall, res: res,
		alloc: float64(ms1.TotalAlloc - ms0.TotalAlloc),
		peak:  float64(peakBytes-min(base, peakBytes)) / (1 << 20)}
	if tr != nil {
		st.cov = coverage(tr.view(), int(root))
	}
	return st, nil
}

// peakSampler tracks the live heap, as marked by each GC cycle, until
// stopped. Live bytes, not allocated bytes: the sampled high-water mark
// of a heap full of garbage depends on when the GC happened to run.
type peakSampler struct {
	stopc chan struct{}
	done  sync.WaitGroup
	peak  uint64
}

const liveHeap = "/gc/heap/live:bytes"

func readLive() uint64 {
	s := []metrics.Sample{{Name: liveHeap}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startPeakSampler() *peakSampler {
	p := &peakSampler{stopc: make(chan struct{}), peak: readLive()}
	p.done.Add(1)
	go func() {
		defer p.done.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-p.stopc:
				return
			case <-tick.C:
				p.peak = max(p.peak, readLive())
			}
		}
	}()
	return p
}

// stop ends sampling after one more GC, which marks what the finished
// round still holds.
func (p *peakSampler) stop() uint64 {
	close(p.stopc)
	p.done.Wait()
	runtime.GC()
	return max(p.peak, readLive())
}

// allocPerOp returns the bytes allocated per op over the distinct input
// sets the run covered: the median allocation of each input set's rounds,
// summed, over the sum of their ops. Summing over the sets, not taking a
// median of per-round ratios, weighs each set by its work, as one pass
// through all of them would.
func allocPerOp(rounds []roundStat) float64 {
	byInput := map[int][]float64{}
	ops := map[int]int{}
	for _, r := range rounds {
		byInput[r.res.input] = append(byInput[r.res.input], r.alloc)
		ops[r.res.input] = r.res.ops
	}
	var bytes, n float64
	for in, a := range byInput {
		bytes += median(a)
		n += float64(ops[in])
	}
	return bytes / n
}

func walls(rounds []roundStat, traced bool) []float64 {
	var out []float64
	for _, r := range rounds {
		if r.traced == traced {
			out = append(out, r.wall)
		}
	}
	return out
}

// layerMetrics fills the per-layer metrics of a traced run.
func layerMetrics(cfg config, rep *report, rounds []roundStat, tr *tracer, fail func(string, ...any), w io.Writer) error {
	vals := map[string]float64{}
	// The workload's own layers: medians over its traced rounds.
	per := map[string][]float64{}
	var covs, peaks []float64
	var untraced []roundStat
	for _, r := range rounds {
		if !r.traced {
			untraced = append(untraced, r)
			peaks = append(peaks, r.peak)
			continue
		}
		covs = append(covs, r.cov)
		for k, v := range r.res.layers {
			per[k] = append(per[k], v)
		}
	}
	for k, v := range per {
		vals[k] = median(v)
	}
	vals["job.alloc_kb_per_op"] = allocPerOp(untraced) / 1024
	vals["job.peak_heap_mb"] = median(peaks)
	plain, traced := median(walls(rounds, false)), median(walls(rounds, true))
	vals["trace.overhead_s"] = traced - plain
	vals["trace.coverage_pct"] = 100 * median(covs)
	fmt.Fprintf(w, "traced round %.3fs, untraced %.3fs, overhead %+.2f%%; named layers cover %.1f%% of traced wall time\n",
		traced, plain, 100*(traced-plain)/plain, vals["trace.coverage_pct"])
	// Self times of the last traced round; concurrent cells of the
	// workload job add up to more than its wall time.
	spans := tr.view()
	self := selfSeconds(spans)
	for _, layer := range sortedKeys(self) {
		fmt.Fprintf(w, "  self %-12s %9.4fs %6.1f%% of the last traced round\n",
			layer, self[layer], 100*self[layer]/spans[0].seconds())
	}

	// Layers of the other jobs: one traced round each at the reduced size,
	// recorded in the same tracer after the last traced round.
	for _, name := range workloadNames {
		if name == cfg.workload {
			continue
		}
		other, err := newJob(name, cfg.seed, reducedSize)
		if err != nil {
			return err
		}
		checked, err := checkRound(other, 0)
		if err != nil {
			return err
		}
		rep.Attempted++
		checkOutput(name, reducedSize, cfg.seed, other, checked, fail, w)
		if err := other.setup(); err != nil {
			return err
		}
		root := tr.begin("bench.reduced", name, noSpan)
		finish, err := other.round(0, tr, root)
		tr.end(root)
		if err != nil {
			return err
		}
		res := finish()
		rep.Attempted++
		if res.digest != checked.digest {
			fail("%s (reduced) traced round differs from its check round", name)
		}
		for k, v := range res.layers {
			vals[k] = v
		}
	}
	probes, err := probeLayers(cfg.seed, tr, noSpan)
	if err != nil {
		return err
	}
	for k, v := range probes {
		vals[k] = v
	}
	path, err := tr.write(cfg.traceDir, cfg.workload, cfg.seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "spans written to %s (run %s)\n", path, tr.runID)
	for _, m := range perLayer {
		v, ok := vals[m.name]
		if !ok {
			return fmt.Errorf("per-layer metric %s was not measured", m.name)
		}
		rep.Metrics[m.name] = metricOut{v, m.unit}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
