package experiments

import (
	"fmt"
	"strconv"

	"hbm2ecc/internal/beam"
	"hbm2ecc/internal/dram"
	"hbm2ecc/internal/hbm2"
	"hbm2ecc/internal/microbench"
	"hbm2ecc/internal/obs"
	"hbm2ecc/internal/resilience"
)

// campaignMTTE is the in-beam mean time to event in seconds. The real
// campaign's was tens of seconds; a faster rate shortens simulation
// without affecting clustering, since it stays far above the read-pass
// duration.
const campaignMTTE float64 = 5

var mResumedRuns = obs.NewCounter("campaign_resumed_runs_total",
	"Completed runs replayed (not re-evaluated) when resuming a campaign "+
		"from a checkpoint.").With()

// CampaignCheckpoint is a resumable snapshot of campaign progress: the
// config echo guards against resuming with mismatched parameters, and the
// completed logs carry everything needed to both continue (state is
// rebuilt by replaying the exposure schedule) and post-process.
type CampaignCheckpoint struct {
	Seed int64 `json:"seed"`
	Runs int   `json:"runs"`
	// OnDie echoes the name of the campaign's on-die ECC stage (empty
	// when none): observations depend on the stage, so resuming under a
	// different one would silently mix distorted and raw records.
	OnDie     string            `json:"ondie,omitempty"`
	Completed int               `json:"completed"`
	Clock     float64           `json:"clock"`
	Logs      []*microbench.Log `json:"logs"`
}

// stageName names an on-die stage for the checkpoint echo; stages expose
// their registry name via an optional Name method.
func stageName(s dram.OnDieStage) string {
	if s == nil {
		return ""
	}
	if n, ok := s.(interface{ Name() string }); ok {
		return n.Name()
	}
	return "unnamed"
}

// Save atomically writes the checkpoint to path (write-temp-then-rename).
func (c *CampaignCheckpoint) Save(path string) error {
	return resilience.SaveJSON(path, c)
}

// LoadCampaignCheckpoint reads a checkpoint written by Save.
func LoadCampaignCheckpoint(path string) (*CampaignCheckpoint, error) {
	var c CampaignCheckpoint
	if err := resilience.LoadJSON(path, &c); err != nil {
		return nil, err
	}
	return &c, nil
}

// compatible reports whether the checkpoint matches the (defaulted)
// campaign config it is about to resume.
func (c *CampaignCheckpoint) compatible(cfg CampaignConfig) error {
	if c.Seed != cfg.Seed || c.Runs != cfg.Runs {
		return fmt.Errorf("experiments: checkpoint (seed=%d runs=%d) does not match config (seed=%d runs=%d)",
			c.Seed, c.Runs, cfg.Seed, cfg.Runs)
	}
	if c.OnDie != stageName(cfg.OnDie) {
		return fmt.Errorf("experiments: checkpoint on-die stage %q does not match config %q",
			c.OnDie, stageName(cfg.OnDie))
	}
	if c.Completed != len(c.Logs) {
		return fmt.Errorf("experiments: checkpoint completed=%d but carries %d logs", c.Completed, len(c.Logs))
	}
	if c.Completed > c.Runs {
		return fmt.Errorf("experiments: checkpoint completed=%d exceeds runs=%d", c.Completed, c.Runs)
	}
	return nil
}

// CampaignRun executes the beam campaign with optional cancellation and
// checkpoint/resume. It returns the logs of all completed runs; when the
// context is cancelled mid-campaign the in-flight run is discarded and the
// completed prefix is returned with a nil error (checkpoint it via
// OnCheckpoint or CampaignCheckpoint.Save and resume later).
//
// Resume is replay-based: completed runs re-execute their write/exposure
// schedule (identical RNG consumption on the campaign beam, no read
// evaluation), so a resumed campaign's device, beam, and clock state —
// and therefore every subsequent run — are bit-identical to an
// uninterrupted campaign with the same config.
func CampaignRun(cfg CampaignConfig) ([]*microbench.Log, error) {
	if cfg.Runs == 0 {
		cfg.Runs = 300
	}
	start := 0
	var logs []*microbench.Log
	if cfg.Checkpoint != nil {
		if err := cfg.Checkpoint.compatible(cfg); err != nil {
			return nil, err
		}
		start = cfg.Checkpoint.Completed
		logs = append(logs, cfg.Checkpoint.Logs...)
	}

	span := obs.DefaultTracer.Start("campaign")
	span.SetAttr("runs", strconv.Itoa(cfg.Runs))
	defer span.Finish()
	setup := span.Child("device_setup")
	dev := dram.New(hbm2.V100(), dram.DefaultRefreshPeriod)
	if cfg.OnDie != nil {
		dev.SetOnDie(cfg.OnDie)
	}
	b := beam.New(dev, beam.Config{
		Seed:           cfg.Seed,
		SEURatePerFlux: 1 / (campaignMTTE * beam.ChipIRFlux),
	})
	if cfg.Ctx != nil {
		b.SetContext(cfg.Ctx)
	}
	setup.Finish()

	t := 0.0
	if start > 0 {
		// Rebuild device/beam/clock state behind the checkpoint.
		replay := span.Child("replay")
		replay.SetAttr("runs", strconv.Itoa(start))
		for run := 0; run < start; run++ {
			log := microbench.Run(campaignRunConfig(cfg, dev, b, run, t))
			t = log.EndTime
		}
		replay.Finish()
		mResumedRuns.Add(uint64(start))
		if cfg.Checkpoint.Clock != 0 && t != cfg.Checkpoint.Clock {
			return nil, fmt.Errorf("experiments: replayed clock %g does not match checkpoint clock %g",
				t, cfg.Checkpoint.Clock)
		}
	}

	for run := start; run < cfg.Runs; run++ {
		if cfg.Ctx != nil && cfg.Ctx.Err() != nil {
			break
		}
		rs := span.Child("run")
		runCfg := campaignRunConfig(cfg, dev, b, run, t)
		runCfg.Replay = false
		runCfg.Span = rs
		log := microbench.Run(runCfg)
		rs.SetAttr("pattern", log.Pattern.String())
		rs.Finish()
		if log.Cancelled {
			// Partial run: its records and clock must not enter the
			// campaign. Resume re-executes it from the write pass.
			break
		}
		t = log.EndTime
		logs = append(logs, log)
		if cfg.OnRun != nil {
			cfg.OnRun(run+1, cfg.Runs, log)
		}
		if cfg.OnCheckpoint != nil {
			cfg.OnCheckpoint(&CampaignCheckpoint{
				Seed: cfg.Seed, Runs: cfg.Runs,
				OnDie:     stageName(cfg.OnDie),
				Completed: len(logs), Clock: t, Logs: logs,
			})
		}
	}
	return logs, nil
}

// campaignRunConfig builds the per-run microbenchmark config; Replay is
// set so callers reconstructing state get the cheap path by default.
func campaignRunConfig(cfg CampaignConfig, dev *dram.Device, b *beam.Beam, run int, t float64) microbench.Config {
	return microbench.Config{
		Device:    dev,
		Beam:      b,
		Pattern:   microbench.PatternKind(run % int(microbench.NumPatterns)),
		StartTime: t,
		Seed:      cfg.Seed*1_000_003 + int64(run),
		Ctx:       cfg.Ctx,
		Replay:    true,
	}
}
