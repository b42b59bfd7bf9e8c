package ondie

import (
	"testing"

	"hbm2ecc/internal/bitvec"
	"hbm2ecc/internal/dram"
)

// TestInferRecoversEveryCandidate is the acceptance criterion: BEER-style
// inference against a black-box device must recover the exact
// ground-truth H-matrix for every candidate on-die code.
func TestInferRecoversEveryCandidate(t *testing.T) {
	for _, name := range StageNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			res, match, err := InferCandidate(name, testCfg(), InferOptions{Seed: 1, Validate: 64})
			if err != nil {
				t.Fatal(err)
			}
			if !match {
				truth, _ := StageByName(name)
				t.Fatalf("recovered columns differ from ground truth:\n got %v\nwant %v",
					res.Cols, truth.Full.Cols)
			}
			if res.Validated != 64 {
				t.Errorf("validated = %d, want 64", res.Validated)
			}
			if res.Experiments == 0 || res.CellsPlanted == 0 {
				t.Errorf("telemetry not recorded: %+v", res)
			}
			t.Logf("%s: %d experiments, %d cells, %v", name, res.Experiments, res.CellsPlanted, res.Elapsed)
		})
	}
}

// TestInferWrongGeometry pins the failure mode when the hypothesis does
// not match the die: the sweep finds no parity subset that corrects the
// canary, instead of silently returning a wrong matrix.
func TestInferWrongGeometry(t *testing.T) {
	truth, err := StageByName("hamming64")
	if err != nil {
		t.Fatal(err)
	}
	dev := dram.New(testCfg(), dram.DefaultRefreshPeriod)
	dev.SetOnDie(truth)
	if _, err := Infer(dev, Geometry{K: 72, R: 7}, InferOptions{Seed: 1, Validate: 1}); err == nil {
		t.Fatal("inference under a wrong geometry hypothesis did not error")
	}
}

// TestInferRejectsEncodedDevice pins the raw-interface precondition: a
// device with a wire encoder installed (rank ECC in the write path)
// cannot run the all-zero charge-state trick.
func TestInferRejectsEncodedDevice(t *testing.T) {
	truth, err := StageByName("hamming72")
	if err != nil {
		t.Fatal(err)
	}
	dev := dram.New(testCfg(), dram.DefaultRefreshPeriod)
	dev.SetOnDie(truth)
	dev.SetWireEncoder(func(d [32]byte) bitvec.V288 { return bitvec.FromDataECC(d, [4]byte{0xFF, 0, 0, 0}) })
	if _, err := Infer(dev, GeometryOf(truth), InferOptions{Seed: 1, Validate: 1}); err == nil {
		t.Fatal("inference against an encoded device did not error")
	}
}

// TestInferredStageBehaves checks the recovered code is usable as a
// Stage and transforms error masks identically to the ground truth.
func TestInferredStageBehaves(t *testing.T) {
	res, match, err := InferCandidate("sec128", testCfg(), InferOptions{Seed: 7, Validate: 16})
	if err != nil || !match {
		t.Fatalf("match=%v err=%v", match, err)
	}
	rec, err := res.Stage()
	if err != nil {
		t.Fatal(err)
	}
	truth, _ := StageByName("sec128")
	for b := 0; b < 288; b += 7 {
		e := bitvec.V288{}.FlipBit(b).FlipBit((b + 13) % 288)
		if rec.TransformMask(e) != truth.TransformMask(e) {
			t.Fatalf("recovered stage diverges on error %v", e.Bits())
		}
	}
}
