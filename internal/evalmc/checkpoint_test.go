package evalmc

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"hbm2ecc/internal/core"
	"hbm2ecc/internal/errormodel"
)

func TestEvaluateCtxCancelledEarly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := smallOpts()
	opts.Ctx = ctx
	res, err := EvaluateCtx(core.NewSECDED(false, false), opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for p := errormodel.Bit1; p < errormodel.NumPatterns; p++ {
		if res.PerPattern[p].N != 0 {
			t.Fatalf("pattern %v evaluated despite cancelled context", p)
		}
	}
}

// TestEvaluateResumeEqualsUninterrupted interrupts an evaluation after two
// pattern classes, checkpoints to disk, resumes, and checks the final
// results are identical to an uninterrupted evaluation.
func TestEvaluateResumeEqualsUninterrupted(t *testing.T) {
	s := core.NewDuetECC()
	opts := smallOpts()
	full := Evaluate(s, opts)

	// Interrupted: cancel after the second completed pattern class.
	path := filepath.Join(t.TempDir(), "eval.ckpt.json")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ckpt := NewCheckpoint(opts)
	iopts := opts
	iopts.Ctx = ctx
	iopts.Progress = func(scheme string, p errormodel.Pattern, r PatternResult) {
		ckpt.Store(scheme, p, r)
		if err := ckpt.Save(path); err != nil {
			t.Fatalf("checkpoint save: %v", err)
		}
		if ckpt.Cells() == 2 {
			cancel()
		}
	}
	if _, err := EvaluateCtx(s, iopts); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	// Resume from disk: cached cells are reused, the rest re-evaluated.
	loaded, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Compatible(opts.Echo()); err != nil {
		t.Fatal(err)
	}
	if loaded.Cells() != 2 {
		t.Fatalf("loaded checkpoint has %d cells, want 2", loaded.Cells())
	}
	ropts := opts
	ropts.Resume = loaded.Lookup
	resumed, err := EvaluateCtx(s, ropts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full, resumed) {
		t.Fatalf("resumed results differ from uninterrupted:\n%+v\nvs\n%+v", full, resumed)
	}
}

func TestCheckpointCompatibility(t *testing.T) {
	opts := smallOpts()
	ckpt := NewCheckpoint(opts)
	if err := ckpt.Compatible(opts.Echo()); err != nil {
		t.Fatalf("self-compatibility failed: %v", err)
	}
	other := opts
	other.Seed++
	if err := ckpt.Compatible(other.Echo()); err == nil {
		t.Fatal("checkpoint accepted a different seed")
	}
}
