package ondie

import (
	"reflect"
	"testing"

	"hbm2ecc/internal/errormodel"
	"hbm2ecc/internal/experiments"
)

// TestCampaignNilStageIsByteIdentical is the differential lock on the
// acceptance criterion: a campaign with no on-die stage must produce
// byte-identical logs to today's plain pipeline — the stage hook adds
// nothing to the RNG stream or the read path when disabled.
func TestCampaignNilStageIsByteIdentical(t *testing.T) {
	plain := experiments.CampaignLogs(experiments.CampaignConfig{Seed: 11, Runs: 60})
	hooked := experiments.CampaignLogs(experiments.CampaignConfig{Seed: 11, Runs: 60, OnDie: nil})
	if !reflect.DeepEqual(plain, hooked) {
		t.Fatal("campaign with OnDie=nil diverged from the plain pipeline")
	}
}

// TestDistortionStudyDirection runs the on-vs-off study and asserts the
// documented distortion direction: fewer observed events (silent
// single-bit correction), no higher single-bit share, and telemetry
// showing both corrections and miscorrections.
func TestDistortionStudyDirection(t *testing.T) {
	rep, err := DistortionStudy("hamming64", 5, 220)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.CheckDirection(); err != nil {
		t.Fatal(err)
	}
	if rep.Distorted.Events >= rep.Raw.Events {
		t.Errorf("events %d -> %d: stage absorbed nothing", rep.Raw.Events, rep.Distorted.Events)
	}
	if rep.StageStats.Corrected == 0 {
		t.Error("no silent corrections recorded")
	}
	// The same raw schedule observed through the stage: the weight vector
	// must differ (that is the point of recomputing Table 1 on-die-on).
	if rep.Raw.Weights == rep.Distorted.Weights {
		t.Error("distorted Table 1 weights identical to raw")
	}
	t.Logf("events %d -> %d, single-bit %.3f -> %.3f, stats %+v",
		rep.Raw.Events, rep.Distorted.Events,
		rep.Raw.Table1[errormodel.Bit1].P, rep.Distorted.Table1[errormodel.Bit1].P,
		rep.StageStats)
}
