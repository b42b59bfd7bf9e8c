package experiments

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"

	"hbm2ecc/internal/classify"
	"hbm2ecc/internal/obs"
)

// TestCampaignResumeEqualsUninterrupted is the resilience acceptance test:
// a campaign cancelled mid-flight, checkpointed to disk, and resumed must
// produce logs — and therefore statistics — identical to an uninterrupted
// campaign with the same config.
func TestCampaignResumeEqualsUninterrupted(t *testing.T) {
	cfg := CampaignConfig{Seed: 77, Runs: 6}
	full, err := CampaignRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != 6 {
		t.Fatalf("full campaign: %d logs, want 6", len(full))
	}

	// Interrupted campaign: checkpoint after every run, cancel after 3.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	path := filepath.Join(t.TempDir(), "campaign.ckpt.json")
	partial, err := CampaignRun(CampaignConfig{
		Seed: 77, Runs: 6, Ctx: ctx,
		OnCheckpoint: func(c *CampaignCheckpoint) {
			if err := c.Save(path); err != nil {
				t.Fatalf("checkpoint save: %v", err)
			}
			if c.Completed == 3 {
				cancel()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(partial) != 3 {
		t.Fatalf("interrupted campaign: %d logs, want 3", len(partial))
	}

	// Resume from the on-disk checkpoint (exercises the JSON round-trip).
	ckpt, err := LoadCampaignCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if ckpt.Completed != 3 {
		t.Fatalf("checkpoint completed = %d, want 3", ckpt.Completed)
	}
	resumed, err := CampaignRun(CampaignConfig{Seed: 77, Runs: 6, Checkpoint: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed) != 6 {
		t.Fatalf("resumed campaign: %d logs, want 6", len(resumed))
	}

	if !reflect.DeepEqual(full, resumed) {
		t.Fatal("resumed campaign logs differ from uninterrupted campaign")
	}
	// And the derived statistics agree (belt and braces: this is what the
	// paper's tables are computed from).
	af := classify.Analyze(full, classify.Options{})
	ar := classify.Analyze(resumed, classify.Options{})
	if !reflect.DeepEqual(af.Table1(), ar.Table1()) {
		t.Fatal("per-pattern (Table 1) statistics diverged after resume")
	}
	if !reflect.DeepEqual(af.ClassBreakdown(), ar.ClassBreakdown()) {
		t.Fatal("error-class breakdown diverged after resume")
	}
}

func TestCampaignCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	logs, err := CampaignRun(CampaignConfig{Seed: 3, Runs: 50, Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if len(logs) != 0 {
		t.Fatalf("cancelled campaign completed %d runs, want 0", len(logs))
	}
}

func TestCampaignCheckpointMismatchRejected(t *testing.T) {
	ckpt := &CampaignCheckpoint{Seed: 1, Runs: 6, Completed: 0}
	if _, err := CampaignRun(CampaignConfig{Seed: 2, Runs: 6, Checkpoint: ckpt}); err == nil {
		t.Fatal("mismatched checkpoint accepted")
	}
	bad := &CampaignCheckpoint{Seed: 1, Runs: 6, Completed: 2}
	if _, err := CampaignRun(CampaignConfig{Seed: 1, Runs: 6, Checkpoint: bad}); err == nil {
		t.Fatal("checkpoint with missing logs accepted")
	}
}

// TestCampaignPhaseCounts locks the phase table perfbench's microbench
// layers read from obs.DefaultTracer: one campaign span, one span per
// run, and per run one write_pass, read_scan and evaluate span for each
// of the 10 write passes.
func TestCampaignPhaseCounts(t *testing.T) {
	counts := func() map[string]int {
		m := map[string]int{}
		for _, p := range obs.DefaultTracer.Phases() {
			m[p.Name] = p.Count
		}
		return m
	}
	before := counts()
	if _, err := CampaignRun(CampaignConfig{Seed: 5, Runs: 2}); err != nil {
		t.Fatal(err)
	}
	after := counts()
	want := map[string]int{"campaign": 1, "run": 2, "write_pass": 20, "read_scan": 20, "evaluate": 20}
	for name, n := range want {
		if got := after[name] - before[name]; got != n {
			t.Errorf("phase %q: %d spans, want %d", name, got, n)
		}
	}
}
