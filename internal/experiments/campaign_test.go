package experiments

import (
	"context"
	"reflect"
	"testing"

	"hbm2ecc/internal/microbench"
	"hbm2ecc/internal/obs"
)

// TestCampaignCancelReturnsPrefix locks what an interrupted campaign
// keeps: cancelled after run 3 of 6, it returns exactly the first 3 logs
// of the uninterrupted campaign, so an interrupted beamsim reports a
// true prefix and a rerun reproduces the rest.
func TestCampaignCancelReturnsPrefix(t *testing.T) {
	full := CampaignLogs(CampaignConfig{Seed: 77, Runs: 6})
	if len(full) != 6 {
		t.Fatalf("full campaign: %d logs, want 6", len(full))
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	partial := CampaignLogs(CampaignConfig{
		Seed: 77, Runs: 6, Ctx: ctx,
		OnRun: func(completed, _ int, _ *microbench.Log) {
			if completed == 3 {
				cancel()
			}
		},
	})
	if len(partial) != 3 {
		t.Fatalf("interrupted campaign: %d logs, want 3", len(partial))
	}
	if !reflect.DeepEqual(partial, full[:3]) {
		t.Fatal("interrupted campaign's logs differ from the uninterrupted campaign's first 3")
	}
}

func TestCampaignCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if logs := CampaignLogs(CampaignConfig{Seed: 3, Runs: 50, Ctx: ctx}); len(logs) != 0 {
		t.Fatalf("cancelled campaign completed %d runs, want 0", len(logs))
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
	CampaignLogs(CampaignConfig{Seed: 5, Runs: 2})
	after := counts()
	want := map[string]int{"campaign": 1, "run": 2, "write_pass": 20, "read_scan": 20, "evaluate": 20}
	for name, n := range want {
		if got := after[name] - before[name]; got != n {
			t.Errorf("phase %q: %d spans, want %d", name, got, n)
		}
	}
}

// TestCampaignClassifyPhase: Campaign classifies its logs in one
// classify phase of the default tracer, and CampaignLogs opens none.
func TestCampaignClassifyPhase(t *testing.T) {
	count := func() int {
		for _, p := range obs.DefaultTracer.Phases() {
			if p.Name == "classify" {
				return p.Count
			}
		}
		return 0
	}
	before := count()
	CampaignLogs(CampaignConfig{Seed: 5, Runs: 2})
	if got := count() - before; got != 0 {
		t.Errorf("CampaignLogs opened %d classify phases, want 0", got)
	}
	Campaign(CampaignConfig{Seed: 5, Runs: 2})
	if got := count() - before; got != 1 {
		t.Errorf("Campaign opened %d classify phases, want 1", got)
	}
}
