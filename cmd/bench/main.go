// Command bench is the reproducible decode-throughput benchmark runner:
// it times encode and decode (reference, fast single-shot, and batch
// paths) for every Table-2 scheme over a corpus drawn from the sampled
// Monte-Carlo error classes, times an end-to-end EvaluateAll, and emits
// the results as JSON (BENCH_decode.json) so every future optimization
// PR has a trajectory to beat.
//
// Usage:
//
//	go run ./cmd/bench                  # full run, writes BENCH_decode.json
//	go run ./cmd/bench -quick -out f    # CI smoke (scripts/check.sh)
//	go run ./cmd/bench -quick -gate     # also fail if any scheme's batch decode is slower than single-shot
//	go run ./cmd/bench -cluster         # distributed scaling, BENCH_cluster.json
//	go run ./cmd/bench -serve           # online serving tier, BENCH_serve.json
//	go run ./cmd/bench -fleet           # fleet health plane, BENCH_fleet.json
//
// Numbers are wall-clock and machine-dependent; the speedup ratios
// (reference vs fast path on the same machine) are the stable signal.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"hbm2ecc/internal/bitvec"
	"hbm2ecc/internal/cluster"
	"hbm2ecc/internal/core"
	"hbm2ecc/internal/errormodel"
	"hbm2ecc/internal/evalmc"
)

// ClassBench is one scheme's timings on a single sampled error class.
type ClassBench struct {
	Class        string  `json:"class"`
	RefNS        float64 `json:"ref_decode_ns"`
	FastNS       float64 `json:"fast_decode_ns"`
	BatchNS      float64 `json:"batch_decode_ns"`
	SpeedupFast  float64 `json:"speedup_fast"`
	SpeedupBatch float64 `json:"speedup_batch"`
}

// SchemeBench is one scheme's measured timings, in nanoseconds per entry.
type SchemeBench struct {
	Name     string  `json:"name"`
	EncodeNS float64 `json:"encode_ns"`
	// RefNS is the reference (pre-fast-path) decoder on the error corpus.
	RefNS float64 `json:"ref_decode_ns"`
	// FastNS is the table-driven single-shot decoder on the same corpus.
	FastNS float64 `json:"fast_decode_ns"`
	// BatchNS is the batch fast path, the configuration the Monte-Carlo
	// evaluator runs.
	BatchNS float64 `json:"batch_decode_ns"`
	// CleanBatchNS is the batch fast path on error-free entries (the
	// common case of a real memory read).
	CleanBatchNS float64 `json:"clean_batch_decode_ns"`
	// SpeedupFast and SpeedupBatch are RefNS/FastNS and RefNS/BatchNS.
	SpeedupFast  float64 `json:"speedup_fast"`
	SpeedupBatch float64 `json:"speedup_batch"`
	// PerClass breaks the decode timings down by sampled error class.
	// The reference decoder bails out on the first uncorrectable codeword,
	// so its cost varies strongly with the class mix; the mixed-corpus
	// numbers above average over the three classes.
	PerClass []ClassBench `json:"per_class"`
}

// EvalBench is the end-to-end Monte-Carlo evaluation timing.
type EvalBench struct {
	Samples      int     `json:"samples_per_class"`
	Schemes      int     `json:"schemes"`
	Trials       int     `json:"trials"`
	Millis       float64 `json:"wall_ms"`
	TrialsPerSec float64 `json:"trials_per_sec"`
}

// Report is the BENCH_decode.json schema.
type Report struct {
	Schema     string        `json:"schema"`
	GoVersion  string        `json:"go_version"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Seed       int64         `json:"seed"`
	Corpus     int           `json:"corpus"`
	Quick      bool          `json:"quick"`
	Schemes    []SchemeBench `json:"schemes"`
	Eval       EvalBench     `json:"evaluate_all"`
}

var sink int

// measure runs pass repeatedly until minTime has elapsed and returns the
// mean nanoseconds per corpus entry.
func measure(minTime time.Duration, corpusLen int, pass func()) float64 {
	pass() // warm tables and caches
	iters := 0
	var elapsed time.Duration
	for elapsed < minTime {
		start := time.Now()
		pass()
		elapsed += time.Since(start)
		iters++
	}
	return float64(elapsed.Nanoseconds()) / float64(iters) / float64(corpusLen)
}

// corpusFor draws received words for one scheme: clean entries corrupted
// round-robin by the three sampled Monte-Carlo classes (3 Bits, 1 Beat,
// 1 Entry), the classes whose volume dominates evaluator runtime.
func corpusFor(s core.Scheme, n int, seed int64) (errored, clean []bitvec.V288) {
	var data [bitvec.DataBytes]byte
	for i := range data {
		data[i] = byte(i*17 + 3)
	}
	wire := s.Encode(data)
	smp := errormodel.NewSampler(seed)
	classes := []errormodel.Pattern{errormodel.Bits3, errormodel.Beat1, errormodel.Entry1}
	errored = make([]bitvec.V288, n)
	clean = make([]bitvec.V288, n)
	for i := range errored {
		errored[i] = wire.Xor(smp.Sample(classes[i%len(classes)]))
		clean[i] = wire
	}
	return errored, clean
}

// measureDecode times the reference, fast single-shot and batch decode
// paths over one corpus of received words.
func measureDecode(s core.Scheme, words []bitvec.V288, out []core.WireResult, minTime time.Duration) (refNS, fastNS, batchNS float64) {
	n := len(words)
	if rd, ok := s.(core.RefDecoder); ok {
		refNS = measure(minTime, n, func() {
			for _, w := range words {
				sink += int(rd.DecodeWireRef(w).Status)
			}
		})
	} else {
		refNS = measure(minTime, n, func() {
			for _, w := range words {
				sink += int(s.DecodeWire(w).Status)
			}
		})
	}
	fastNS = measure(minTime, n, func() {
		for _, w := range words {
			sink += int(s.DecodeWire(w).Status)
		}
	})
	bd := core.AsBatchDecoder(s)
	const chunk = 256
	batchNS = measure(minTime, n, func() {
		for off := 0; off < n; off += chunk {
			end := off + chunk
			if end > n {
				end = n
			}
			bd.DecodeWireBatch(words[off:end], out[off:end])
		}
		sink += int(out[0].Status)
	})
	return refNS, fastNS, batchNS
}

func benchScheme(s core.Scheme, corpus int, seed int64, minTime time.Duration) SchemeBench {
	sb := SchemeBench{Name: s.Name()}
	errored, clean := corpusFor(s, corpus, seed)
	out := make([]core.WireResult, corpus)

	var data [bitvec.DataBytes]byte
	sb.EncodeNS = measure(minTime, corpus, func() {
		for i := 0; i < corpus; i++ {
			w := s.Encode(data)
			sink += int(w[0] & 1)
		}
	})

	sb.RefNS, sb.FastNS, sb.BatchNS = measureDecode(s, errored, out, minTime)

	bd := core.AsBatchDecoder(s)
	sb.CleanBatchNS = measure(minTime, corpus, func() {
		for off := 0; off < corpus; off += 256 {
			end := off + 256
			if end > corpus {
				end = corpus
			}
			bd.DecodeWireBatch(clean[off:end], out[off:end])
		}
		sink += int(out[0].Status)
	})

	sb.SpeedupFast = sb.RefNS / sb.FastNS
	sb.SpeedupBatch = sb.RefNS / sb.BatchNS

	for _, p := range []errormodel.Pattern{errormodel.Bits3, errormodel.Beat1, errormodel.Entry1} {
		var payload [bitvec.DataBytes]byte
		for i := range payload {
			payload[i] = byte(i*17 + 3)
		}
		base := s.Encode(payload)
		smp := errormodel.NewSampler(seed ^ int64(p))
		words := make([]bitvec.V288, corpus)
		for i := range words {
			words[i] = base.Xor(smp.Sample(p))
		}
		cb := ClassBench{Class: p.String()}
		cb.RefNS, cb.FastNS, cb.BatchNS = measureDecode(s, words, out, minTime)
		cb.SpeedupFast = cb.RefNS / cb.FastNS
		cb.SpeedupBatch = cb.RefNS / cb.BatchNS
		sb.PerClass = append(sb.PerClass, cb)
	}
	return sb
}

func main() {
	out := flag.String("out", "", "output JSON path (default BENCH_decode.json, or BENCH_cluster.json with -cluster)")
	quick := flag.Bool("quick", false, "CI smoke mode: small corpus and sample counts")
	clusterBench := flag.Bool("cluster", false, "benchmark the distributed campaign engine's 1/2/4-worker scaling instead of decode throughput")
	serveBench := flag.Bool("serve", false, "benchmark the online decode service (single vs micro-batched) instead of decode throughput")
	fleetBench := flag.Bool("fleet", false, "benchmark the fleet health plane (10k-node agent/coordinator pipeline) instead of decode throughput")
	workloadBench := flag.Bool("workload", false, "benchmark the workload outcome engine (kernel runs/sec, resume differential) instead of decode throughput")
	ondieBench := flag.Bool("ondie", false, "benchmark the on-die ECC stage (read-path overhead, mask transform, BEER inference wall-clock) instead of decode throughput")
	gate := flag.Bool("gate", false, "regression gate: fail unless every scheme's batch decode is at least as fast as its single-shot fast decode on the errored corpus")
	seed := flag.Int64("seed", 2021, "corpus and evaluation seed")
	corpus := flag.Int("corpus", 8192, "received words per decode corpus")
	samples := flag.Int("samples", 50_000, "Monte-Carlo samples per sampled class in the end-to-end timing")
	minTime := flag.Duration("mintime", 300*time.Millisecond, "minimum measurement time per timing")
	flag.Parse()

	if *quick {
		*corpus = 2048
		*samples = 5_000
		*minTime = 25 * time.Millisecond
	}

	if *clusterBench {
		if *out == "" {
			*out = "BENCH_cluster.json"
		}
		if err := runClusterBench(*out, *seed, *samples); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	if *serveBench {
		if *out == "" {
			*out = "BENCH_serve.json"
		}
		if err := runServeBench(*out, *seed, *quick); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	if *fleetBench {
		if *out == "" {
			*out = "BENCH_fleet.json"
		}
		if err := runFleetBench(*out, *seed, *quick); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	if *ondieBench {
		if *out == "" {
			*out = "BENCH_ondie.json"
		}
		if err := runOnDieBench(*out, *seed, *quick, *minTime); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	if *workloadBench {
		if *out == "" {
			*out = "BENCH_workload.json"
		}
		if err := runWorkloadBench(*out, *seed, *quick); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	if *out == "" {
		*out = "BENCH_decode.json"
	}

	schemes := core.Table2Schemes()

	rep := Report{
		Schema:     "hbm2ecc/bench_decode/v3",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       *seed,
		Corpus:     *corpus,
		Quick:      *quick,
	}

	fmt.Printf("%-14s %9s %9s %9s %9s %9s\n", "scheme", "encode", "ref", "fast", "batch", "clean")
	gateFailed := false
	for _, s := range schemes {
		sb := benchScheme(s, *corpus, *seed, *minTime)
		rep.Schemes = append(rep.Schemes, sb)
		fmt.Printf("%-14s %7.1fns %7.1fns %7.1fns %7.1fns %7.1fns\n",
			sb.Name, sb.EncodeNS, sb.RefNS, sb.FastNS, sb.BatchNS, sb.CleanBatchNS)
		for _, cb := range sb.PerClass {
			fmt.Printf("  %-12s %9s %7.1fns %7.1fns %7.1fns (%5.2fx fast, %5.2fx batch)\n",
				cb.Class, "", cb.RefNS, cb.FastNS, cb.BatchNS, cb.SpeedupFast, cb.SpeedupBatch)
		}
		if *gate && sb.BatchNS > sb.FastNS {
			gateFailed = true
			fmt.Fprintf(os.Stderr, "bench: GATE: %s batch decode (%.1fns) slower than single-shot decode (%.1fns)\n",
				sb.Name, sb.BatchNS, sb.FastNS)
		}
	}
	if gateFailed {
		os.Exit(1)
	}

	start := time.Now()
	results := evalmc.EvaluateAll(schemes, evalmc.Options{
		Seed:         *seed,
		Samples3b:    *samples,
		SamplesBeat:  *samples,
		SamplesEntry: *samples,
		Parallel:     true,
	})
	wall := time.Since(start)
	trials := 0
	for _, r := range results {
		for _, p := range r.PerPattern {
			trials += p.N
		}
	}
	rep.Eval = EvalBench{
		Samples:      *samples,
		Schemes:      len(schemes),
		Trials:       trials,
		Millis:       float64(wall.Microseconds()) / 1000,
		TrialsPerSec: float64(trials) / wall.Seconds(),
	}
	fmt.Printf("EvaluateAll: %d trials over %d schemes in %.1fms (%.2fM trials/sec)\n",
		trials, len(schemes), rep.Eval.Millis, rep.Eval.TrialsPerSec/1e6)

	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	raw = append(raw, '\n')
	if err := os.WriteFile(*out, raw, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println("wrote", *out)
	_ = sink
}

// ClusterWorkerBench is one worker-count point of the scaling curve.
type ClusterWorkerBench struct {
	Workers int `json:"workers"`
	// MakespanMS is the campaign's critical path: the maximum over
	// workers of the summed calibrated costs of the cells that worker
	// actually completed under the real lease protocol.
	MakespanMS float64 `json:"makespan_ms"`
	// TrialsPerSec is total trials divided by the makespan — the
	// aggregate throughput the assignment achieves on a machine with at
	// least `workers` idle cores.
	TrialsPerSec float64 `json:"trials_per_sec"`
	// Speedup is this row's TrialsPerSec over the 1-worker row's.
	Speedup float64 `json:"speedup_vs_1"`
	// WallMS is the measured single-machine wall clock of the run, for
	// transparency (on a 1-core machine it shows no scaling: workers
	// time-share the CPU).
	WallMS          float64   `json:"wall_ms"`
	Requeues        uint64    `json:"requeues"`
	CellsPerWorker  []int     `json:"cells_per_worker"`
	BusyMSPerWorker []float64 `json:"busy_ms_per_worker"`
}

// ClusterReport is the BENCH_cluster.json schema.
type ClusterReport struct {
	Schema        string               `json:"schema"`
	GoVersion     string               `json:"go_version"`
	GOMAXPROCS    int                  `json:"gomaxprocs"`
	Seed          int64                `json:"seed"`
	Samples       int                  `json:"samples_per_class"`
	Trials        int                  `json:"trials"`
	Method        string               `json:"method"`
	CalibrationMS float64              `json:"calibration_wall_ms"`
	Workers       []ClusterWorkerBench `json:"workers"`
}

const clusterMethod = "Per-cell costs are calibrated by timing every (scheme, pattern) cell " +
	"sequentially on one core (after a warm-up pass). Each worker count then runs the real " +
	"cluster engine — coordinator over loopback HTTP, lease protocol, LPT scheduling — and " +
	"the reported makespan is the maximum over workers of the summed calibrated costs of the " +
	"cells each worker actually completed. That is the campaign's critical path, i.e. the " +
	"wall clock on a machine with >= `workers` idle cores; it is reported instead of raw " +
	"wall clock because this environment may expose fewer cores than workers, in which case " +
	"concurrent workers time-share the CPU and wall clock cannot show scaling. The measured " +
	"wall_ms is included alongside for transparency."

// runClusterBench measures the distributed campaign engine's scaling
// over the Table-2 corpus at 1, 2 and 4 workers.
func runClusterBench(out string, seed int64, samples int) error {
	spec := cluster.Spec{
		Schemes:      core.Table2Names(),
		Seed:         seed,
		Samples3b:    samples,
		SamplesBeat:  samples,
		SamplesEntry: samples,
		Shards:       1,
	}
	opts := spec.Options()

	rep := ClusterReport{
		Schema:     "hbm2ecc/bench_cluster/v1",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       seed,
		Samples:    samples,
		Method:     clusterMethod,
	}

	// Calibrate per-cell costs sequentially: warm pass (scheme table
	// construction, caches), then the timed pass.
	schemes := map[string]core.Scheme{}
	for _, name := range spec.Schemes {
		s, err := core.SchemeByName(name)
		if err != nil {
			return err
		}
		schemes[name] = s
	}
	cost := make([]float64, spec.NumCells()) // seconds per cell
	for pass := 0; pass < 2; pass++ {
		start := time.Now()
		rep.Trials = 0
		for id := 0; id < spec.NumCells(); id++ {
			c, err := spec.Cell(id)
			if err != nil {
				return err
			}
			t0 := time.Now()
			r, err := evalmc.EvaluateCell(schemes[c.Scheme], c.PatternP(), opts)
			if err != nil {
				return err
			}
			cost[id] = time.Since(t0).Seconds()
			rep.Trials += r.N
		}
		rep.CalibrationMS = float64(time.Since(start).Microseconds()) / 1000
	}
	fmt.Printf("calibrated %d cells, %d trials in %.1fms\n",
		spec.NumCells(), rep.Trials, rep.CalibrationMS)

	for _, n := range []int{1, 2, 4} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
		start := time.Now()
		_, coord, err := cluster.RunLocal(ctx, cluster.CoordinatorOptions{Spec: spec}, n,
			cluster.WorkerOptions{ID: "bench", PollMax: 5 * time.Millisecond})
		cancel()
		if err != nil {
			return err
		}
		wall := time.Since(start)

		perWorker := map[string]float64{}
		counts := map[string]int{}
		for _, a := range coord.Assignments() {
			perWorker[a.Worker] += cost[a.Cell.ID]
			counts[a.Worker]++
		}
		wb := ClusterWorkerBench{
			Workers:  n,
			WallMS:   float64(wall.Microseconds()) / 1000,
			Requeues: coord.Status().Requeues,
		}
		var makespan float64
		for w, busy := range perWorker {
			if busy > makespan {
				makespan = busy
			}
			wb.CellsPerWorker = append(wb.CellsPerWorker, counts[w])
			wb.BusyMSPerWorker = append(wb.BusyMSPerWorker, busy*1000)
		}
		wb.MakespanMS = makespan * 1000
		wb.TrialsPerSec = float64(rep.Trials) / makespan
		if len(rep.Workers) == 0 {
			wb.Speedup = 1
		} else {
			wb.Speedup = wb.TrialsPerSec / rep.Workers[0].TrialsPerSec
		}
		rep.Workers = append(rep.Workers, wb)
		fmt.Printf("workers=%d  makespan=%.1fms  %.2fM trials/sec  speedup=%.2fx  (wall %.1fms)\n",
			n, wb.MakespanMS, wb.TrialsPerSec/1e6, wb.Speedup, wb.WallMS)
	}

	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	if err := os.WriteFile(out, raw, 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", out)
	return nil
}
