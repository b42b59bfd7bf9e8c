package workload

import (
	"strings"
	"testing"

	"hbm2ecc/internal/faults"
)

// TestOutcomeClassesReachable is the reachability gate (scripts/check.sh
// runs it as the workload smoke): with forced injection — every run
// carries exactly one fault event — a small campaign over an unprotected
// and a protected configuration must reach all five outcome classes.
func TestOutcomeClassesReachable(t *testing.T) {
	opts := Options{Seed: 1, Runs: 80, Schemes: []string{NoECC, "DuetECC"},
		Kernels: []Kernel{GEMM, DNN}, Parallel: true}
	res, err := Campaign(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("got %d cells, want 4", len(res))
	}
	var union [NumOutcomes]int
	for _, r := range res {
		for o := Outcome(0); o < NumOutcomes; o++ {
			union[o] += r.Outcomes[o]
		}
		if r.Runs != opts.Runs || len(r.Ledger) != opts.Runs {
			t.Errorf("%s/%s: runs=%d ledger=%d, want %d", r.Scheme, r.Kernel, r.Runs, len(r.Ledger), opts.Runs)
		}
	}
	for o := Outcome(0); o < NumOutcomes; o++ {
		if union[o] == 0 {
			t.Errorf("outcome %s unreachable in smoke campaign", o)
		}
	}
}

// TestSchemeProtects checks the headline comparison: DRAM ECC cuts the
// critical-SDC rate relative to the unprotected baseline on the same
// seed stream.
func TestSchemeProtects(t *testing.T) {
	opts := Options{Seed: 3, Runs: 150, Kernels: []Kernel{GEMM}}
	none, err := RunCell(NoECC, GEMM, opts)
	if err != nil {
		t.Fatal(err)
	}
	duet, err := RunCell("DuetECC", GEMM, opts)
	if err != nil {
		t.Fatal(err)
	}
	if duet.Outcomes[CriticalSDC] >= none.Outcomes[CriticalSDC] {
		t.Errorf("DuetECC critical SDC %d not below unprotected %d",
			duet.Outcomes[CriticalSDC], none.Outcomes[CriticalSDC])
	}
	// The non-DRAM floor: even the protected cell keeps DUEs/crashes.
	if duet.Outcomes[DUE]+duet.Outcomes[Crash] == 0 {
		t.Error("protected cell shows no DUE/crash: non-DRAM sources missing")
	}
}

func TestSchemeFor(t *testing.T) {
	if s, err := SchemeFor(NoECC); err != nil || s != nil {
		t.Errorf("SchemeFor(none) = %v, %v; want nil scheme", s, err)
	}
	if s, err := SchemeFor("DuetECC"); err != nil || s == nil {
		t.Errorf("SchemeFor(DuetECC) = %v, %v; want scheme", s, err)
	}
	if _, err := SchemeFor("NotAScheme"); err == nil {
		t.Error("unknown scheme accepted")
	}
	if _, err := RunCell("NotAScheme", GEMM, Options{Runs: 1}); err == nil {
		t.Error("RunCell with unknown scheme succeeded")
	}
	if _, err := RunCell(NoECC, Kernel(9), Options{Runs: 1}); err == nil {
		t.Error("RunCell with invalid kernel succeeded")
	}
}

// TestCellFIT pins the FIT arithmetic on a constructed ledger:
// FIT(o) = sum_s fit[s] * P(o|s).
func TestCellFIT(t *testing.T) {
	var r CellResult
	// 10 dram runs: 8 masked, 2 critical. 5 scheduler runs: 5 crash.
	r.BySource[faults.SourceDRAM][Masked] = 8
	r.BySource[faults.SourceDRAM][CriticalSDC] = 2
	r.BySource[faults.SourceScheduler][Crash] = 5
	fit := [faults.NumSources]float64{
		faults.SourceDRAM:      200,
		faults.SourceScheduler: 50,
	}
	got := r.FIT(fit)
	if want := 200 * 0.2; got[CriticalSDC] != want {
		t.Errorf("critical-SDC FIT = %v, want %v", got[CriticalSDC], want)
	}
	if want := 50.0; got[Crash] != want {
		t.Errorf("crash FIT = %v, want %v", got[Crash], want)
	}
	if want := 200 * 0.8; got[Masked] != want {
		t.Errorf("masked FIT = %v, want %v", got[Masked], want)
	}
	if got[DUE] != 0 {
		t.Errorf("DUE FIT = %v, want 0", got[DUE])
	}
}

func TestWriteReport(t *testing.T) {
	opts := Options{Seed: 2, Runs: 40, Schemes: []string{NoECC, "DuetECC"},
		Kernels: []Kernel{DNN}, Parallel: true}
	res, err := Campaign(opts)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	WriteReport(&sb, res, faults.DefaultSourceFIT)
	out := sb.String()
	for _, want := range []string{"Workload outcomes: dnn", "DuetECC", NoECC,
		"End-to-end FIT", "kill FIT", "critical-SDC FIT"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
