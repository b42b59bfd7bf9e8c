// Command bench measures what the whole-job benchmark (perfbench) and
// `go test` do not: kernel-level decode timings. It writes its results
// as JSON at the repo root.
//
// Usage:
//
//	go run ./cmd/bench                  # decode kernels, writes BENCH_decode.json
//	go run ./cmd/bench -quick -out f    # CI smoke (scripts/check.sh)
//	go run ./cmd/bench -quick -gate     # also fail if any scheme's batch decode is slower than single-shot
//
// Numbers are wall-clock and machine-dependent; the speedup ratios
// (reference vs fast path on the same machine) are the stable signal.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"hbm2ecc/internal/bitvec"
	"hbm2ecc/internal/core"
	"hbm2ecc/internal/errormodel"
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

// gateReps is how many interleaved timings of the fast and batch decode
// paths the gated (errored-corpus) comparison takes the median of, so
// the gate does not rest on one noisy timing of either.
const gateReps = 3

// measureDecode times the reference, fast single-shot and batch decode
// paths over one corpus of received words. The fast and batch paths are
// timed reps times, alternately, and each reports its median.
func measureDecode(s core.Scheme, words []bitvec.V288, out []core.WireResult, minTime time.Duration, reps int) (refNS, fastNS, batchNS float64) {
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
	bd := core.AsBatchDecoder(s)
	fastT, batchT := make([]float64, reps), make([]float64, reps)
	for i := range reps {
		fastT[i] = measure(minTime, n, fast)
		batchT[i] = measure(minTime, n, func() { decodeBatches(bd, words, out) })
	}
	return refNS, median(fastT), median(batchT)
}

// median returns the middle value of xs (the upper middle for an even
// count); it reorders xs.
func median(xs []float64) float64 {
	slices.Sort(xs)
	return xs[len(xs)/2]
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

	sb.RefNS, sb.FastNS, sb.BatchNS = measureDecode(s, errored, out, minTime, gateReps)
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
		cb.RefNS, cb.FastNS, cb.BatchNS = measureDecode(s, words, out, minTime, 1)
		cb.SpeedupFast = cb.RefNS / cb.FastNS
		cb.SpeedupBatch = cb.RefNS / cb.BatchNS
		sb.PerClass = append(sb.PerClass, cb)
	}
	return sb
}

// runDecodeBench times encode and the reference, fast single-shot and
// batch decode paths for every Table-2 scheme. With gate set it fails,
// before writing, if any scheme's median batch decode time is above its
// median single-shot decode time on the errored corpus.
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
	out := flag.String("out", "BENCH_decode.json", "output JSON path")
	quick := flag.Bool("quick", false, "CI smoke mode: small corpus")
	gate := flag.Bool("gate", false, "regression gate: fail unless every scheme's batch decode is at least as fast as its single-shot fast decode on the errored corpus")
	seed := flag.Int64("seed", 2021, "corpus seed")
	corpus := flag.Int("corpus", 8192, "received words per decode corpus")
	minTime := flag.Duration("mintime", 300*time.Millisecond, "minimum measurement time per timing")
	flag.Parse()

	if *quick {
		*corpus = 2048
		*minTime = 25 * time.Millisecond
	}
	if err := runDecodeBench(*out, *seed, *corpus, *quick, *gate, *minTime); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
