package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the benchmark must honour.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestReducedPass runs every workload at the reduced size, untraced and
// traced, at the default seed and one other: every output check must
// pass and every metric BENCHMARK.json names must be printed with its
// unit.
func TestReducedPass(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(s.Workloads), len(workloadNames))
	}
	for i, wl := range s.Workloads {
		if wl.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q here", i, wl.Name, workloadNames[i])
		}
	}
	for _, wl := range workloadNames {
		for _, trace := range []bool{false, true} {
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			seeds := []int64{defaultSeed}
			if !trace {
				seeds = append(seeds, 7)
			}
			for _, seed := range seeds {
				var out bytes.Buffer
				rep, err := run(config{workload: wl, seed: seed, seconds: 0.05, trace: trace,
					traceDir: t.TempDir(), sz: reducedSize}, &out)
				if err != nil {
					t.Fatalf("%s seed %d trace=%v: %v", wl, seed, trace, err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 3 {
					t.Errorf("%s seed %d trace=%v: correct=%v attempted=%d failed=%d\n%s",
						wl, seed, trace, rep.Correct, rep.Attempted, rep.Failed, out.String())
				}
				if len(rep.Metrics) != len(want) {
					t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json names %d",
						wl, trace, len(rep.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := rep.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", wl, trace, m.Name, got, m.Unit)
					}
					if !strings.Contains(out.String(), m.Name) {
						t.Errorf("%s trace=%v: %s missing from the printed lines", wl, trace, m.Name)
					}
				}
			}
		}
	}
}

// TestSpanArithmetic pins self time and coverage on a hand-built trace:
// a root with two sequential children, one of which has a child, and a
// gap the bench itself spends.
func TestSpanArithmetic(t *testing.T) {
	spans := []spanView{
		{Name: "bench.round", Start: 0, End: 100, Parent: -1},
		{Name: "experiments.CampaignLogs", Start: 0, End: 40, Parent: 0},
		{Name: "microbench.Run", Start: 10, End: 30, Parent: 1},
		{Name: "classify.Analyze", Start: 50, End: 90, Parent: 0},
	}
	self := selfSeconds(spans)
	want := map[string]float64{"bench": 20e-9, "experiments": 20e-9, "microbench": 20e-9, "classify": 40e-9}
	for k, v := range want {
		if d := self[k] - v; d > 1e-15 || d < -1e-15 {
			t.Errorf("self[%s] = %g, want %g", k, self[k], v)
		}
	}
	if got := coverage(spans, 0); got != 0.8 {
		t.Errorf("coverage = %g, want 0.8", got)
	}
	// Concurrent children overlap: the union counts the overlap once.
	par := []spanView{
		{Name: "bench.round", Start: 0, End: 100, Parent: -1},
		{Name: "workload.cell", Start: 0, End: 60, Parent: 0},
		{Name: "workload.cell", Start: 30, End: 90, Parent: 0},
	}
	if got := coverage(par, 0); got != 0.9 {
		t.Errorf("parallel coverage = %g, want 0.9", got)
	}
}
