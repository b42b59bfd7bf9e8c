// External test: the on-die error-transform hook, differentially locked
// against the plain pipeline and checked for the documented distortion
// direction. Lives in package evalmc_test so it can import internal/ondie
// without entangling evalmc itself with the stage implementation.
package evalmc_test

import (
	"reflect"
	"testing"

	"hbm2ecc/internal/bitvec"
	"hbm2ecc/internal/core"
	"hbm2ecc/internal/errormodel"
	"hbm2ecc/internal/evalmc"
	"hbm2ecc/internal/ondie"
)

func ondieOpts() evalmc.Options {
	return evalmc.Options{Seed: 1, Samples3b: 20000, SamplesBeat: 20000,
		SamplesEntry: 20000, Shards: 2}
}

// TestIdentityTransformIsByteIdentical is the differential lock: an
// identity ErrTransform must reproduce the nil-transform evaluation
// exactly — the hook sits after sampling, so the trial streams (and
// therefore every count) are untouched.
func TestIdentityTransformIsByteIdentical(t *testing.T) {
	s, err := core.SchemeByName("I:SEC-DED")
	if err != nil {
		t.Fatal(err)
	}
	plain := evalmc.Evaluate(s, ondieOpts())
	opts := ondieOpts()
	opts.ErrTransform = func(e bitvec.V288) bitvec.V288 { return e }
	hooked := evalmc.Evaluate(s, opts)
	if !reflect.DeepEqual(plain, hooked) {
		t.Fatal("identity ErrTransform diverged from nil transform")
	}
}

// TestOnDieDistortionDirection pins the documented direction of the
// distorted breakdown: with a SEC stage beneath it, every raw 1-bit and
// 1-pin error is scrubbed before the rank-level code decodes (fully
// corrected), while 2-bit errors inflate and create SDC for a SEC-DED
// scheme that, raw, detects them all.
func TestOnDieDistortionDirection(t *testing.T) {
	s, err := core.SchemeByName("I:SEC-DED")
	if err != nil {
		t.Fatal(err)
	}
	st, err := ondie.StageByName("hamming64")
	if err != nil {
		t.Fatal(err)
	}
	raw := evalmc.Evaluate(s, ondieOpts())
	opts := ondieOpts()
	opts.ErrTransform = st.TransformMask
	dist := evalmc.Evaluate(s, opts)

	for _, p := range []errormodel.Pattern{errormodel.Bit1, errormodel.Pin1} {
		r := dist.PerPattern[p]
		if r.DCE != r.N || r.SDC != 0 || r.DUE != 0 {
			t.Errorf("%v through the die: %+v, want all corrected", p, r)
		}
	}
	rawB2, distB2 := raw.PerPattern[errormodel.Bits2], dist.PerPattern[errormodel.Bits2]
	if rawB2.SDC != 0 {
		t.Fatalf("premise broken: raw SEC-DED has %d SDC on 2-bit errors", rawB2.SDC)
	}
	if distB2.SDC == 0 {
		t.Error("on-die miscorrection created no 2-bit SDC")
	}
	if distB2.DUE >= rawB2.DUE {
		t.Errorf("2-bit DUE did not shrink: %d -> %d", rawB2.DUE, distB2.DUE)
	}
}
