package evalmc

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"hbm2ecc/internal/core"
	"hbm2ecc/internal/errormodel"
)

func smallOpts() Options {
	return Options{Seed: 1, Samples3b: 20000, SamplesBeat: 20000, SamplesEntry: 20000, Parallel: true}
}

// TestEvaluateCtxCancelledEarly cancels before the first column: no
// pattern class is evaluated and the context error is returned.
func TestEvaluateCtxCancelledEarly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := smallOpts()
	opts.Ctx = ctx
	res, err := EvaluateAllCtx([]core.Scheme{core.NewSECDED(false, false)}, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for p := errormodel.Bit1; p < errormodel.NumPatterns; p++ {
		if res[0].PerPattern[p].N != 0 {
			t.Fatalf("pattern %v evaluated despite cancelled context", p)
		}
	}
}

func TestEvaluateSECDEDBaseline(t *testing.T) {
	res := Evaluate(core.NewSECDED(false, false), smallOpts())

	bit := res.PerPattern[errormodel.Bit1]
	if !bit.Exhaustive || bit.DCE != bit.N || bit.N != 288 {
		t.Fatalf("bit errors: %+v", bit)
	}
	pin := res.PerPattern[errormodel.Pin1]
	if pin.DCE != pin.N {
		t.Fatalf("NI:SEC-DED must correct all pin errors: %+v", pin)
	}
	two := res.PerPattern[errormodel.Bits2]
	// Cross-codeword doubles are corrected opportunistically (one bit per
	// codeword); in-codeword doubles are DUEs; none may be silent.
	if two.SDC != 0 || two.DUE == 0 || two.DCE == 0 {
		t.Fatalf("SEC-DED double-bit outcomes: %+v", two)
	}
	byteR := res.PerPattern[errormodel.Byte1]
	if byteR.SDC == 0 {
		t.Fatal("baseline must show byte-error SDC (the paper's motivation)")
	}

	w := res.Weighted()
	// Fig. 8: SEC-DED corrects ~74%, detects ~20%, SDC ~5.4%.
	if w.DCE < 0.70 || w.DCE > 0.80 {
		t.Fatalf("weighted DCE %.4f outside Fig. 8 band", w.DCE)
	}
	if w.SDC < 0.01 || w.SDC > 0.12 {
		t.Fatalf("weighted SDC %.4f outside Fig. 8 band", w.SDC)
	}
	if s := w.DCE + w.DUE + w.SDC; math.Abs(s-1) > 1e-9 {
		t.Fatalf("weighted probabilities sum to %v", s)
	}
}

func TestDuetECCOrdersOfMagnitude(t *testing.T) {
	opts := smallOpts()
	base := Evaluate(core.NewSECDED(false, false), opts).Weighted()
	duet := Evaluate(core.NewDuetECC(), opts).Weighted()

	if duet.SDC >= base.SDC/100 {
		t.Fatalf("DuetECC SDC %.2e not >= 2 orders below baseline %.2e", duet.SDC, base.SDC)
	}
	red := SDCReduction(base, duet)
	if red < 2 {
		t.Fatalf("DuetECC SDC reduction %.2f orders of magnitude (paper: >3)", red)
	}
}

func TestTrioCorrectsMoreThanDuet(t *testing.T) {
	opts := smallOpts()
	duet := Evaluate(core.NewDuetECC(), opts).Weighted()
	trio := Evaluate(core.NewTrioECC(), opts).Weighted()

	if trio.DCE <= duet.DCE {
		t.Fatalf("TrioECC DCE %.4f must exceed DuetECC %.4f", trio.DCE, duet.DCE)
	}
	if trio.DUE >= duet.DUE {
		t.Fatalf("TrioECC DUE %.4f must be below DuetECC %.4f", trio.DUE, duet.DUE)
	}
	// The correction/SDC trade-off: Trio accepts more SDC risk than Duet.
	if trio.SDC < duet.SDC {
		t.Fatalf("expected TrioECC SDC %.2e >= DuetECC SDC %.2e", trio.SDC, duet.SDC)
	}
	if r := DUEReduction(duet, trio); r < 2 {
		t.Fatalf("Trio-vs-Duet DUE reduction %.2f too small (paper: 7.87x vs SEC-DED-class DUE rates)", r)
	}
}

func TestNISEC2bECIsARegression(t *testing.T) {
	// The paper: NI:SEC-2bEC alone has a prohibitive ~9.3% SDC risk.
	opts := smallOpts()
	base := Evaluate(core.NewSECDED(false, false), opts).Weighted()
	ni2b := Evaluate(core.NewSEC2bEC(false, false), opts).Weighted()
	if ni2b.SDC <= base.SDC {
		t.Fatalf("NI:SEC-2bEC SDC %.4f should exceed baseline %.4f", ni2b.SDC, base.SDC)
	}
}

func TestSSCDSDPlusBestSDC(t *testing.T) {
	opts := smallOpts()
	trio := Evaluate(core.NewTrioECC(), opts).Weighted()
	dsd := Evaluate(core.NewSSCDSDPlus(), opts).Weighted()
	if dsd.SDC > trio.SDC {
		t.Fatalf("SSC-DSD+ SDC %.2e must not exceed TrioECC %.2e", dsd.SDC, trio.SDC)
	}
	// Correction approaches Trio but Trio stays slightly ahead (pin
	// correction).
	if dsd.DCE >= trio.DCE {
		t.Fatalf("TrioECC DCE %.4f should exceed SSC-DSD+ %.4f (pin correction)", trio.DCE, dsd.DCE)
	}
	if trio.DCE-dsd.DCE > 0.05 {
		t.Fatalf("SSC-DSD+ DCE %.4f should approach TrioECC %.4f", dsd.DCE, trio.DCE)
	}
}

func TestByteErrorsTrioVsDuet(t *testing.T) {
	opts := smallOpts()
	duet := Evaluate(core.NewDuetECC(), opts)
	trio := Evaluate(core.NewTrioECC(), opts)
	db := duet.PerPattern[errormodel.Byte1]
	tb := trio.PerPattern[errormodel.Byte1]
	if tb.DCE != tb.N {
		t.Fatalf("TrioECC must correct all byte errors: %+v", tb)
	}
	if db.SDC != 0 {
		t.Fatalf("DuetECC byte errors must never be SDC: %+v", db)
	}
}

func TestFormatTable2Markers(t *testing.T) {
	opts := smallOpts()
	rows := FormatTable2([]SchemeResult{
		Evaluate(core.NewTrioECC(), opts),
		Evaluate(core.NewSECDED(false, false), opts),
	})
	if rows[0].Cells[errormodel.Byte1] != "C" {
		t.Fatalf("TrioECC byte cell = %q", rows[0].Cells[errormodel.Byte1])
	}
	if rows[1].Cells[errormodel.Bit1] != "C" {
		t.Fatalf("baseline bit cell = %q", rows[1].Cells[errormodel.Bit1])
	}
	if rows[1].Cells[errormodel.Bits2] != "D" {
		t.Fatalf("baseline 2-bit cell = %q", rows[1].Cells[errormodel.Bits2])
	}
	c := rows[1].Cells[errormodel.Byte1]
	if c == "C" || c == "D" {
		t.Fatalf("baseline byte cell should show an SDC%%, got %q", c)
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	opts := smallOpts()
	a := Evaluate(core.NewDuetECC(), opts)
	b := Evaluate(core.NewDuetECC(), opts)
	if a != b {
		t.Fatal("evaluation must be deterministic for fixed seed")
	}
}

func TestDataIndependenceForLinearCodes(t *testing.T) {
	optsA := smallOpts()
	optsB := smallOpts()
	for i := range optsB.Data {
		optsB.Data[i] = byte(37 * i)
	}
	a := Evaluate(core.NewTrioECC(), optsA)
	b := Evaluate(core.NewTrioECC(), optsB)
	if a != b {
		t.Fatal("linear code evaluation must be data-independent")
	}
}

// TestPayloadInvariance locks the assumption behind every caller leaving
// Options.Data zero: a random payload gives every registered scheme the
// same per-pattern outcomes as the zero payload.
func TestPayloadInvariance(t *testing.T) {
	zero := Options{Seed: 3, Samples3b: 3000, SamplesBeat: 3000, SamplesEntry: 3000}
	random := zero
	rand.New(rand.NewSource(11)).Read(random.Data[:])
	var schemes []core.Scheme
	for _, name := range core.SchemeNames() {
		s, err := core.SchemeByName(name)
		if err != nil {
			t.Fatal(err)
		}
		schemes = append(schemes, s)
	}
	want := EvaluateAll(schemes, zero)
	got := EvaluateAll(schemes, random)
	for i, s := range schemes {
		for p := errormodel.Bit1; p < errormodel.NumPatterns; p++ {
			if got[i].PerPattern[p] != want[i].PerPattern[p] {
				t.Errorf("%s / %s: random payload %+v, zero payload %+v",
					s.Name(), p, got[i].PerPattern[p], want[i].PerPattern[p])
			}
		}
	}
}

func TestEvaluateAllOrder(t *testing.T) {
	schemes := []core.Scheme{core.NewDuetECC(), core.NewTrioECC()}
	res := EvaluateAll(schemes, smallOpts())
	if len(res) != 2 || res[0].Scheme != "DuetECC" || res[1].Scheme != "TrioECC" {
		t.Fatalf("EvaluateAll order broken: %v %v", res[0].Scheme, res[1].Scheme)
	}
}
