package workload

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"hbm2ecc/internal/core"
	"hbm2ecc/internal/dram"
	"hbm2ecc/internal/faults"
	"hbm2ecc/internal/gpusim"
)

// TestKernelGolden runs every kernel unfaulted — with ECC off and with
// DuetECC — and checks the device-path output matches the host-side
// golden computation exactly.
func TestKernelGolden(t *testing.T) {
	duet, err := core.SchemeByName("DuetECC")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range Kernels() {
		for _, sch := range []core.Scheme{nil, duet} {
			m := NewMemory(gpusim.New(workloadConfig, sch))
			inst := newInstance(k, rand.New(rand.NewSource(7)), m)
			inst.run(m)
			got := m.ReadOut(inst.out)
			if m.Failed() {
				t.Fatalf("%s: unfaulted run raised a DUE", k)
			}
			if classifyOutput(k, inst.golden, got) != Masked {
				t.Errorf("%s (scheme=%v): device output %v != golden %v", k, sch, got, inst.golden)
			}
		}
	}
}

// TestKernelOpCountDeterministic checks that a kernel's op count, and
// its whole access trace, do not depend on its drawn data — the
// injection timeline contract the trace decision relies on.
func TestKernelOpCountDeterministic(t *testing.T) {
	for _, k := range Kernels() {
		var traces []*trace
		for seed := int64(1); seed <= 3; seed++ {
			tr, _ := recordTrace(k, seed)
			traces = append(traces, tr)
		}
		for _, tr := range traces[1:] {
			if !reflect.DeepEqual(tr, traces[0]) {
				t.Errorf("%s: access trace varies with data (op counts %d, %d)", k, traces[0].ops, tr.ops)
			}
		}
		if traces[0].ops == 0 {
			t.Errorf("%s: zero ops", k)
		}
	}
}

// TestMemoryPoison checks the cache-poison model: the first load at or
// after the armed op returns its value with exactly the armed bit
// flipped, and only once.
func TestMemoryPoison(t *testing.T) {
	m := NewMemory(gpusim.New(workloadConfig, nil))
	tt := m.Alloc(4)
	for i := 0; i < 4; i++ {
		m.Store(tt, i, int32(100+i))
	}
	m.SchedulePoison(m.Ops(), 3)
	got := m.Load(tt, 0)
	if want := int32(100) ^ (1 << 3); got != want {
		t.Fatalf("poisoned load = %d, want %d", got, want)
	}
	if got := m.Load(tt, 0); got != 100 {
		t.Fatalf("second load = %d, want clean 100 (poison must fire once)", got)
	}
}

// TestMemoryStoreClearsCorruption checks that overwriting an entry clears
// injected DRAM corruption — stored charge is replaced — and that every
// load until then reads the corrupted word.
func TestMemoryStoreClearsCorruption(t *testing.T) {
	m := NewMemory(gpusim.New(workloadConfig, nil))
	tt := m.Alloc(1)
	m.Store(tt, 0, 42)
	var corr dram.Corruption
	corr.Xor = corr.Xor.FlipBit(0)
	m.ScheduleDRAM(m.Ops(), faults.Event{Effects: []faults.EntryEffect{{Entry: tt.base, Corr: corr}}})
	for n := 0; n < 2; n++ {
		if got := m.Load(tt, 0); got != 43 {
			t.Fatalf("load %d after the strike = %d, want 43 (bit 0 flipped)", n, got)
		}
	}
	m.Store(tt, 0, 42)
	if got := m.Load(tt, 0); got != 42 {
		t.Fatalf("load after rewrite = %d, want 42 (store must clear corruption)", got)
	}
}

func TestOutcomeJSONRoundTrip(t *testing.T) {
	for o := Outcome(0); o < NumOutcomes; o++ {
		b, err := json.Marshal(o)
		if err != nil {
			t.Fatalf("marshal %v: %v", o, err)
		}
		var back Outcome
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if back != o {
			t.Errorf("round trip %v -> %s -> %v", o, b, back)
		}
	}
}

func TestOutcomeJSONRejects(t *testing.T) {
	var o Outcome
	if err := json.Unmarshal([]byte(`"sdc"`), &o); err == nil || !strings.Contains(err.Error(), "unknown outcome") {
		t.Errorf("unknown name: err = %v, want unknown-outcome error", err)
	}
	if err := json.Unmarshal([]byte(`2`), &o); err == nil {
		t.Error("numeric outcome accepted; enums are names on the wire")
	}
	if _, err := json.Marshal(Outcome(99)); err == nil {
		t.Error("marshal of invalid outcome succeeded")
	}
}

func TestKernelJSONRoundTrip(t *testing.T) {
	for _, k := range Kernels() {
		b, err := json.Marshal(k)
		if err != nil {
			t.Fatalf("marshal %v: %v", k, err)
		}
		var back Kernel
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if back != k {
			t.Errorf("round trip %v -> %s -> %v", k, b, back)
		}
	}
	var k Kernel
	if err := json.Unmarshal([]byte(`"fft"`), &k); err == nil {
		t.Error("unknown kernel name accepted")
	}
	if err := json.Unmarshal([]byte(`0`), &k); err == nil {
		t.Error("numeric kernel accepted")
	}
	if _, err := json.Marshal(Kernel(12)); err == nil {
		t.Error("marshal of invalid kernel succeeded")
	}
}

func TestClassifyOutput(t *testing.T) {
	if got := classifyOutput(GEMM, []int32{1, 2}, []int32{1, 2}); got != Masked {
		t.Errorf("identical output = %v, want masked", got)
	}
	if got := classifyOutput(GEMM, []int32{1, 2}, []int32{1, 3}); got != CriticalSDC {
		t.Errorf("GEMM mismatch = %v, want critical_sdc", got)
	}
	// DNN: logits moved, top-1 unchanged -> tolerable.
	if got := classifyOutput(DNN, []int32{10, 5, 1, 0}, []int32{10, 6, 1, 0}); got != TolerableSDC {
		t.Errorf("DNN same argmax = %v, want tolerable_sdc", got)
	}
	// DNN: top-1 flipped -> critical.
	if got := classifyOutput(DNN, []int32{10, 5, 1, 0}, []int32{10, 50, 1, 0}); got != CriticalSDC {
		t.Errorf("DNN argmax flip = %v, want critical_sdc", got)
	}
	// Truncated (nil) output never classifies as masked.
	if got := classifyOutput(Reduction, []int32{7}, nil); got != CriticalSDC {
		t.Errorf("nil output = %v, want critical_sdc", got)
	}
}
