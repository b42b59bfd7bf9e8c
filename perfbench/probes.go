package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"hbm2ecc/internal/bitvec"
	"hbm2ecc/internal/core"
	"hbm2ecc/internal/errormodel"
	"hbm2ecc/internal/experiments"
	"hbm2ecc/internal/faults"
	"hbm2ecc/internal/gpusim"
	"hbm2ecc/internal/hbm2"
	"hbm2ecc/internal/microbench"
	"hbm2ecc/internal/ondie"
)

// The layer probes time single calls into one layer's public functions
// from outside, over the entries of a heavily damaged GPU
// (experiments.DamagedGPU): every entry carries weak cells, so reads do
// the same work they do in the characterization campaign. Each probe
// makes probeBatches passes over the corpus and reports the median
// per-call time; one span covers each pass.
const (
	probeBatches = 5
	probeEntries = 4096 // corpus cap, to bound probe time
	// probeRead is a read time after the last write at which every weak
	// cell with retention below the refresh period has leaked.
	probeRead = 1.0
)

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the q-quantile (nearest rank) of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	return s[max(0, min(i, len(s)-1))]
}

// prober runs the probes of one traced run under one parent span.
type prober struct {
	tr     *tracer
	parent spanID
	out    map[string]float64
}

// time records metric as the median ns per call of n calls of fn,
// measured over probeBatches passes.
func (p *prober) time(metric, span, label string, n int, fn func(i int)) {
	per := make([]float64, 0, probeBatches)
	for b := 0; b < probeBatches; b++ {
		sp := p.tr.begin(span, label, p.parent)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		d := time.Since(t0)
		p.tr.end(sp)
		per = append(per, float64(d.Nanoseconds())/float64(n))
	}
	p.out[metric] = median(per)
}

// probeLayers measures every probe metric of the layer catalogue.
func probeLayers(seed int64, tr *tracer, parent spanID) (map[string]float64, error) {
	p := &prober{tr: tr, parent: parent, out: map[string]float64{}}

	sp := tr.begin("experiments.DamagedGPU", "", parent)
	dev, _ := experiments.DamagedGPU(seed + 1)
	tr.end(sp)
	pattern := func(idx int64) [hbm2.EntryBytes]byte {
		return microbench.PatternData(microbench.ANEncoded, idx, false)
	}
	dev.WriteAll(pattern, 0)
	entries := dev.InterestingEntries()
	if len(entries) == 0 {
		return nil, fmt.Errorf("damaged GPU has no weak cells")
	}
	if len(entries) > probeEntries {
		entries = entries[:probeEntries]
	}
	n := len(entries)
	var sink bitvec.V288

	// core: scheme construction, encode, clean single-shot decode and
	// batch decode of an errored corpus, for one binary and one symbol
	// scheme.
	builds := make([]float64, 0, probeBatches)
	for b := 0; b < probeBatches; b++ {
		bs := tr.begin("core.Table2Schemes", "", parent)
		t0 := time.Now()
		core.Table2Schemes()
		builds = append(builds, time.Since(t0).Seconds())
		tr.end(bs)
	}
	p.out["core.build_s"] = median(builds)
	trio, dsd := core.NewTrioECC(), core.NewSSCDSDPlus()
	smp := errormodel.NewSampler(seed + 2)
	for _, c := range []struct {
		key string
		s   core.Scheme
	}{{"binary", trio}, {"symbol", dsd}} {
		s := c.s
		clean := make([]bitvec.V288, n)
		errored := make([]bitvec.V288, n)
		for i, idx := range entries {
			clean[i] = s.Encode(dev.Expected(idx))
			_, e := smp.SampleEvent()
			errored[i] = clean[i].Xor(e)
		}
		p.time("core.encode_ns."+c.key, "core.Encode", s.Name(), n, func(i int) {
			sink = s.Encode(dev.Expected(entries[i]))
		})
		p.time("core.decode_ns."+c.key, "core.DecodeWire", s.Name(), n, func(i int) {
			sink = s.DecodeWire(clean[i]).Wire
		})
		bd := core.AsBatchDecoder(s)
		out := make([]core.WireResult, n)
		p.time("core.decode_batch_ns."+c.key, "core.DecodeWireBatch", s.Name(), 1, func(int) {
			bd.DecodeWireBatch(errored, out)
		})
		p.out["core.decode_batch_ns."+c.key] /= float64(n)
	}

	// dram: raw, on-die, and encoded reads, then single-entry rewrites.
	p.time("dram.read_raw_ns", "dram.ReadWire", "raw", n, func(i int) {
		sink = dev.ReadWire(entries[i], probeRead)
	})
	st, err := ondie.StageByName(ondieStage)
	if err != nil {
		return nil, err
	}
	dev.SetOnDie(st)
	p.time("dram.read_ondie_ns", "dram.ReadWire", ondieStage, n, func(i int) {
		sink = dev.ReadWire(entries[i], probeRead)
	})
	dev.SetOnDie(nil)
	for _, c := range []struct {
		key string
		s   core.Scheme
	}{{"binary", trio}, {"symbol", dsd}} {
		dev.SetWireEncoder(c.s.Encode)
		p.time("dram.read_encoded_ns."+c.key, "dram.ReadWire", c.s.Name(), n, func(i int) {
			sink = dev.ReadWire(entries[i], probeRead)
		})
	}
	dev.SetWireEncoder(nil)

	// ondie: the stage's decode of each raw stored image.
	raws := make([]bitvec.V288, n)
	cleans := make([]bitvec.V288, n)
	for i, idx := range entries {
		raws[i] = dev.ReadWire(idx, probeRead)
		cleans[i] = bitvec.FromDataECC(dev.Expected(idx), [4]byte{})
	}
	p.time("ondie.correct_ns", "ondie.Correct", ondieStage, n, func(i int) {
		sink = st.Correct(cleans[i], raws[i], 0)
	})
	p.time("dram.rewrite_ns", "dram.RewriteEntry", "", n, func(i int) {
		dev.RewriteEntry(entries[i], probeRead)
	})

	// errormodel: sampling cost per class, and the bytes one 1-Entry
	// sample allocates.
	for _, c := range []struct {
		key string
		p   errormodel.Pattern
	}{{"bits3", errormodel.Bits3}, {"beat1", errormodel.Beat1}, {"entry1", errormodel.Entry1}} {
		pat := c.p
		p.time("errormodel.sample_ns."+c.key, "errormodel.Sample", pat.String(), n, func(int) {
			sink = smp.Sample(pat)
		})
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		sink = smp.Sample(errormodel.Entry1)
	}
	runtime.ReadMemStats(&after)
	p.out["errormodel.alloc_bytes_per_sample.entry1"] = float64(after.TotalAlloc-before.TotalAlloc) / float64(n)

	// gpusim: ECC-protected reads of a written one-stack GPU, as the
	// workload kernels issue them.
	for _, c := range []struct {
		key string
		s   core.Scheme
	}{{"none", nil}, {"binary", trio}, {"symbol", dsd}} {
		g := gpusim.New(hbm2.Config{Stacks: 1}, c.s)
		g.WritePattern(pattern)
		p.time("gpusim.read_ns."+c.key, "gpusim.Read", c.key, n, func(i int) {
			g.Read(int64(i))
		})
	}

	// faults: drawing one fault event rebased into a kernel-sized arena.
	inj := faults.NewInjector(hbm2.Config{Stacks: 1}, seed+3)
	p.time("faults.event_ns", "faults.RandomEventIn", "", n, func(int) {
		inj.RandomEventIn(0, 4096)
	})
	_ = sink
	return p.out, nil
}
