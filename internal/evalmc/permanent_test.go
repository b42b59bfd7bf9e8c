package evalmc

import (
	"testing"

	"hbm2ecc/internal/bitvec"
	"hbm2ecc/internal/core"
	"hbm2ecc/internal/ecc"
	"hbm2ecc/internal/errormodel"
)

// permOpts uses all-ones data so a stuck-at-0 region corrupts every bit it
// covers (stuck faults are data-dependent; full contrast makes the
// standing fault maximal and the tests deterministic in intent).
func permOpts() Options {
	var data [32]byte
	for i := range data {
		data[i] = 0xFF
	}
	return Options{Seed: 3, Samples3b: 5000, SamplesBeat: 5000, SamplesEntry: 5000, Data: data}
}

func TestPinFaultGracefulDegradation(t *testing.T) {
	fault := PermanentFault{Kind: PermanentPin, Index: 17, Value: 0}
	opts := permOpts()

	// Pin-correcting schemes stay readable with a fully-dead pin.
	for _, s := range []core.Scheme{core.NewDuetECC(), core.NewTrioECC(), core.NewSSC(true)} {
		res := EvaluateWithPermanent(s, fault, opts)
		if !res.CleanReadable {
			t.Fatalf("%s: not readable with a dead pin", s.Name())
		}
	}
	// SSC-DSD+ cannot: the dead pin spans four symbols of its single
	// codeword, so every read raises a DUE — the availability cost of
	// trading away pin correction (§6.2).
	res := EvaluateWithPermanent(core.NewSSCDSDPlus(), fault, opts)
	if res.CleanReadable {
		t.Fatal("SSC-DSD+ should not read through a fully-dead pin")
	}
	if w := res.Weighted(); w.DCE > 0.01 {
		t.Fatalf("SSC-DSD+ with dead pin still corrects %.4f of events", w.DCE)
	}
}

func TestPinFaultPlusSoftErrors(t *testing.T) {
	fault := PermanentFault{Kind: PermanentPin, Index: 3, Value: 0}
	opts := permOpts()

	trio := EvaluateWithPermanent(core.NewTrioECC(), fault, opts)
	w := trio.Weighted()
	// With a standing pin fault, additional soft errors land in codewords
	// already consuming their correction budget: correction drops
	// relative to the fault-free 97%, but SDC stays small. (A small SDC
	// share remains: a partial-pin standing error plus one soft bit can
	// alias an aligned 2b symbol in one codeword, the same 2-bit
	// miscorrection class Table 2 quantifies at ~5.8% — the CSC cannot
	// see single-codeword corrections.)
	if w.DCE > 0.99 {
		t.Fatalf("TrioECC correction %.4f did not degrade with a dead pin", w.DCE)
	}
	bits := trio.PerPattern[errormodel.Bit1]
	frac := float64(bits.SDC) / float64(bits.N)
	if frac > 0.06 {
		t.Fatalf("single-bit + dead-pin SDC fraction %.4f exceeds the 2-bit aliasing band", frac)
	}
	// DuetECC (no aggressive correction) must keep single-bit + dead pin
	// fully safe.
	duet := EvaluateWithPermanent(core.NewDuetECC(), fault, opts)
	if duet.PerPattern[errormodel.Bit1].SDC != 0 {
		t.Fatalf("DuetECC single-bit + dead pin must never be silent: %+v",
			duet.PerPattern[errormodel.Bit1])
	}
}

func TestByteFaultMirrorsWordlineFailure(t *testing.T) {
	// §2.5: byte detection/correction matters for permanent local
	// wordline failures. TrioECC reads through a fully-dead byte; DuetECC
	// detects it on every read (data safe, availability lost).
	fault := PermanentFault{Kind: PermanentByte, Index: 7, Value: 0}
	opts := permOpts()

	trio := EvaluateWithPermanent(core.NewTrioECC(), fault, opts)
	if !trio.CleanReadable {
		t.Fatal("TrioECC should read through a dead byte")
	}
	duet := EvaluateWithPermanent(core.NewDuetECC(), fault, opts)
	if duet.CleanReadable {
		t.Fatal("DuetECC cannot correct a fully-dead byte (8 bits = 2 per codeword)")
	}
	// And with soft errors on top, Duet's DUE share dominates while SDC
	// stays near zero.
	w := duet.Weighted()
	if w.SDC > 0.001 {
		t.Fatalf("DuetECC SDC %.5f with dead byte", w.SDC)
	}
	if w.DUE < 0.9 {
		t.Fatalf("DuetECC DUE %.4f with dead byte should dominate", w.DUE)
	}
}

func TestPartialStuckFaultsAreDataDependent(t *testing.T) {
	// With data whose stored bits partially match the stuck level, the
	// standing fault shrinks — e.g. a stuck-0 byte over a weight-3 byte
	// value corrupts only 3 bits, which interleaved SEC-DED corrects.
	var data [32]byte
	for i := range data {
		data[i] = 0x61 // bits 0,5,6
	}
	opts := Options{Seed: 4, Samples3b: 1000, SamplesBeat: 1000, SamplesEntry: 1000, Data: data}
	fault := PermanentFault{Kind: PermanentByte, Index: 7, Value: 0}
	duet := EvaluateWithPermanent(core.NewDuetECC(), fault, opts)
	if !duet.CleanReadable {
		t.Fatal("3-active-bit dead byte should be within DuetECC's half-byte correction")
	}
}

func TestPermanentFaultStrings(t *testing.T) {
	if PermanentPin.String() != "pin" || PermanentByte.String() != "byte" {
		t.Fatal("kind strings")
	}
}

func TestPermanentDeterministic(t *testing.T) {
	fault := PermanentFault{Kind: PermanentPin, Index: 9, Value: 0}
	a := EvaluateWithPermanent(core.NewDuetECC(), fault, permOpts())
	b := EvaluateWithPermanent(core.NewDuetECC(), fault, permOpts())
	if a != b {
		t.Fatal("permanent evaluation must be deterministic")
	}
}

// TestEvaluateWithPermanentScalarParity checks the batch-classified
// evaluation against a trial-by-trial scalar reference: identical
// sampler streams, identical outcome counts.
func TestEvaluateWithPermanentScalarParity(t *testing.T) {
	opts := permOpts()
	opts.Samples3b, opts.SamplesBeat, opts.SamplesEntry = 400, 400, 400
	fault := PermanentFault{Kind: PermanentByte, Index: 11, Value: 0}
	for _, s := range []core.Scheme{core.NewDuetECC(), core.NewSSCDSDPlus()} {
		got := EvaluateWithPermanent(s, fault, opts)
		wire := s.Encode(opts.Data)
		perm := fault.xorPattern(wire)
		for p := errormodel.Bit1; p < errormodel.NumPatterns; p++ {
			want := PatternResult{Pattern: p}
			count := func(e bitvec.V288) {
				want.N++
				switch classifyOutcome(s, wire, perm.Xor(e)) {
				case ecc.DCE:
					want.DCE++
				case ecc.DUE:
					want.DUE++
				default:
					want.SDC++
				}
			}
			if errormodel.EnumerableCount(p) >= 0 {
				want.Exhaustive = true
				errormodel.Enumerate(p, count)
			} else {
				smp := errormodel.NewSampler(opts.Seed + int64(p)*7_919)
				for i := 0; i < 400; i++ {
					count(smp.Sample(p))
				}
			}
			if got.PerPattern[p] != want {
				t.Errorf("%s %s: batch %+v != scalar %+v", s.Name(), p, got.PerPattern[p], want)
			}
		}
	}
}

// TestEvaluateWithPermanentAllocs pins the hoisted-scratch refactor: the
// trial loop of EvaluateWithPermanent — layer the standing fault, feed
// the batch classifier — allocates nothing per trial. Binary schemes
// decode fully in place, so the guarantee is exact for them; symbol
// schemes still allocate inside the RS bounded-distance decoder, which
// is that layer's own concern. (Pattern sampling allocates in
// errormodel.Classify and is measured out by pre-drawing the errors.)
func TestEvaluateWithPermanentAllocs(t *testing.T) {
	opts := permOpts()
	fault := PermanentFault{Kind: PermanentPin, Index: 9, Value: 0}
	smp := errormodel.NewSampler(1)
	errs := make([]bitvec.V288, 4096)
	for i := range errs {
		errs[i] = smp.Sample(errormodel.Bits3)
	}
	for _, s := range []core.Scheme{core.NewDuetECC(), core.NewTrioECC()} {
		wire := s.Encode(opts.Data)
		perm := fault.xorPattern(wire)
		bc := newBatchClassifier(s, wire)
		allocs := testing.AllocsPerRun(10, func() {
			for _, e := range errs {
				bc.add(perm.Xor(e))
			}
			bc.flush()
		})
		if allocs > 0 {
			t.Errorf("%s: %.1f allocs per 4096-trial loop, want 0 (scratch not hoisted)", s.Name(), allocs)
		}
	}
}
