// Command bench measures what the whole-job benchmark (perfbench) and
// `go test` do not: kernel-level decode timings, the distributed
// campaign engine's worker scaling, and the online decode service. Each
// leg writes its results as JSON at the repo root.
//
// Usage:
//
//	go run ./cmd/bench                  # decode kernels, writes BENCH_decode.json
//	go run ./cmd/bench -quick -out f    # CI smoke (scripts/check.sh)
//	go run ./cmd/bench -quick -gate     # also fail if any scheme's batch decode is slower than single-shot
//	go run ./cmd/bench -cluster         # distributed scaling, BENCH_cluster.json
//	go run ./cmd/bench -serve           # online serving tier, BENCH_serve.json
//
// Numbers are wall-clock and machine-dependent; the speedup ratios
// (reference vs fast path on the same machine) are the stable signal.
package main

import (
	"context"
	"encoding/json"
	"errors"
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

// Header opens every report: what was measured, and on what.
type Header struct {
	Schema     string `json:"schema"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`
}

func newHeader(schema string, seed int64) Header {
	return Header{Schema: schema, GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: seed}
}

// writeReport writes v to out as indented JSON.
func writeReport(out string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", out)
	return nil
}

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

// Report is the BENCH_decode.json schema.
type Report struct {
	Header
	Corpus  int           `json:"corpus"`
	Quick   bool          `json:"quick"`
	Schemes []SchemeBench `json:"schemes"`
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

// sampledClasses are the three sampled Monte-Carlo classes (3 Bits,
// 1 Beat, 1 Entry), the classes whose volume dominates evaluator runtime.
var sampledClasses = []errormodel.Pattern{errormodel.Bits3, errormodel.Beat1, errormodel.Entry1}

// corpusFor draws received words for one scheme: clean entries corrupted
// round-robin by the sampled classes.
func corpusFor(wire bitvec.V288, n int, seed int64) (errored, clean []bitvec.V288) {
	smp := errormodel.NewSampler(seed)
	errored = make([]bitvec.V288, n)
	clean = make([]bitvec.V288, n)
	for i := range errored {
		errored[i] = wire.Xor(smp.Sample(sampledClasses[i%len(sampledClasses)]))
		clean[i] = wire
	}
	return errored, clean
}

// decodeBatches runs the batch decoder over words in 256-entry chunks.
func decodeBatches(bd core.BatchDecoder, words []bitvec.V288, out []core.WireResult) {
	for off := 0; off < len(words); off += 256 {
		end := min(off+256, len(words))
		bd.DecodeWireBatch(words[off:end], out[off:end])
	}
	sink += int(out[0].Status)
}

// measureDecode times the reference, fast single-shot and batch decode
// paths over one corpus of received words.
func measureDecode(s core.Scheme, words []bitvec.V288, out []core.WireResult, minTime time.Duration) (refNS, fastNS, batchNS float64) {
	n := len(words)
	fast := func() {
		for _, w := range words {
			sink += int(s.DecodeWire(w).Status)
		}
	}
	ref := fast // schemes without a reference decoder
	if rd, ok := s.(core.RefDecoder); ok {
		ref = func() {
			for _, w := range words {
				sink += int(rd.DecodeWireRef(w).Status)
			}
		}
	}
	refNS = measure(minTime, n, ref)
	fastNS = measure(minTime, n, fast)
	bd := core.AsBatchDecoder(s)
	batchNS = measure(minTime, n, func() { decodeBatches(bd, words, out) })
	return refNS, fastNS, batchNS
}

func benchScheme(s core.Scheme, corpus int, seed int64, minTime time.Duration) SchemeBench {
	sb := SchemeBench{Name: s.Name()}
	var payload [bitvec.DataBytes]byte
	for i := range payload {
		payload[i] = byte(i*17 + 3)
	}
	wire := s.Encode(payload)
	errored, clean := corpusFor(wire, corpus, seed)
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
	sb.CleanBatchNS = measure(minTime, corpus, func() { decodeBatches(bd, clean, out) })
	sb.SpeedupFast = sb.RefNS / sb.FastNS
	sb.SpeedupBatch = sb.RefNS / sb.BatchNS

	for _, p := range sampledClasses {
		smp := errormodel.NewSampler(seed ^ int64(p))
		words := make([]bitvec.V288, corpus)
		for i := range words {
			words[i] = wire.Xor(smp.Sample(p))
		}
		cb := ClassBench{Class: p.String()}
		cb.RefNS, cb.FastNS, cb.BatchNS = measureDecode(s, words, out, minTime)
		cb.SpeedupFast = cb.RefNS / cb.FastNS
		cb.SpeedupBatch = cb.RefNS / cb.BatchNS
		sb.PerClass = append(sb.PerClass, cb)
	}
	return sb
}

// runDecodeBench times encode and the reference, fast single-shot and
// batch decode paths for every Table-2 scheme. With gate set it fails,
// before writing, if any scheme's batch decode is slower than its
// single-shot decode on the errored corpus.
func runDecodeBench(out string, seed int64, corpus int, quick, gate bool, minTime time.Duration) error {
	rep := Report{Header: newHeader("hbm2ecc/bench_decode/v4", seed), Corpus: corpus, Quick: quick}
	fmt.Printf("%-14s %9s %9s %9s %9s %9s\n", "scheme", "encode", "ref", "fast", "batch", "clean")
	gateFailed := false
	for _, s := range core.Table2Schemes() {
		sb := benchScheme(s, corpus, seed, minTime)
		rep.Schemes = append(rep.Schemes, sb)
		fmt.Printf("%-14s %7.1fns %7.1fns %7.1fns %7.1fns %7.1fns\n",
			sb.Name, sb.EncodeNS, sb.RefNS, sb.FastNS, sb.BatchNS, sb.CleanBatchNS)
		for _, cb := range sb.PerClass {
			fmt.Printf("  %-12s %9s %7.1fns %7.1fns %7.1fns (%5.2fx fast, %5.2fx batch)\n",
				cb.Class, "", cb.RefNS, cb.FastNS, cb.BatchNS, cb.SpeedupFast, cb.SpeedupBatch)
		}
		if gate && sb.BatchNS > sb.FastNS {
			gateFailed = true
			fmt.Fprintf(os.Stderr, "bench: GATE: %s batch decode (%.1fns) slower than single-shot decode (%.1fns)\n",
				sb.Name, sb.BatchNS, sb.FastNS)
		}
	}
	if gateFailed {
		return errors.New("gate failed: batch decode slower than single-shot")
	}
	return writeReport(out, rep)
}

func main() {
	out := flag.String("out", "", "output JSON path (default BENCH_decode.json, BENCH_cluster.json or BENCH_serve.json)")
	quick := flag.Bool("quick", false, "CI smoke mode: small corpus and sample counts")
	clusterBench := flag.Bool("cluster", false, "benchmark the distributed campaign engine's 1/2/4-worker scaling instead of decode throughput")
	serveBench := flag.Bool("serve", false, "benchmark the online decode service (single vs micro-batched) instead of decode throughput")
	gate := flag.Bool("gate", false, "regression gate: fail unless every scheme's batch decode is at least as fast as its single-shot fast decode on the errored corpus")
	seed := flag.Int64("seed", 2021, "corpus and campaign seed")
	corpus := flag.Int("corpus", 8192, "received words per decode corpus")
	samples := flag.Int("samples", 50_000, "Monte-Carlo samples per sampled class in the -cluster campaign")
	minTime := flag.Duration("mintime", 300*time.Millisecond, "minimum measurement time per timing")
	flag.Parse()

	if *quick {
		*corpus = 2048
		*samples = 5_000
		*minTime = 25 * time.Millisecond
	}
	outOr := func(def string) string {
		if *out != "" {
			return *out
		}
		return def
	}

	var err error
	switch {
	case *clusterBench:
		err = runClusterBench(outOr("BENCH_cluster.json"), *seed, *samples)
	case *serveBench:
		err = runServeBench(outOr("BENCH_serve.json"), *seed, *quick)
	default:
		err = runDecodeBench(outOr("BENCH_decode.json"), *seed, *corpus, *quick, *gate, *minTime)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
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
	Header
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
		Header:  newHeader("hbm2ecc/bench_cluster/v1", seed),
		Samples: samples,
		Method:  clusterMethod,
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

	return writeReport(out, rep)
}
