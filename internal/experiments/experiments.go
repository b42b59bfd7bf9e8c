// Package experiments orchestrates the paper's characterization
// experiments end-to-end on the simulated GPU/beam: the displacement-
// damage studies (Fig. 3), the soft-error pattern campaign (Figs. 4 and 5,
// Table 1), and the DRAM-utilization sweep (§5). The command-line tools
// and the benchmark harness both drive these functions.
package experiments

import (
	"context"
	"strconv"

	"hbm2ecc/internal/beam"
	"hbm2ecc/internal/classify"
	"hbm2ecc/internal/dram"
	"hbm2ecc/internal/hbm2"
	"hbm2ecc/internal/microbench"
	"hbm2ecc/internal/obs"
	"hbm2ecc/internal/stats"
)

// DamagedGPU returns a device that has absorbed enough fluence to saturate
// its displacement damage (a "heavily damaged" GPU, §4), together with its
// beamline. The damage accrues with the device idle (utilization 0), then
// soft-error corruption is cleared by the next write.
func DamagedGPU(seed int64) (*dram.Device, *beam.Beam) {
	dev := dram.New(hbm2.V100(), dram.DefaultRefreshPeriod)
	b := beam.New(dev, beam.Config{Seed: seed})
	// ~5 saturation fluences of exposure.
	duration := 5 * b.Damage.SaturationFluence / b.Flux
	b.Expose(0, duration, 0)
	return dev, b
}

// RefreshSweepResult reproduces Fig. 3a/3b: measured weak-cell counts when
// modulating the refresh period, a normal retention-time fit, and the
// fitted model's predicted counts.
type RefreshSweepResult struct {
	Periods   []float64 // seconds
	Counts    []int     // measured weak cells at each period
	FitMu     float64
	FitSigma  float64
	FitScale  float64
	Predicted []float64 // model-predicted counts at Periods
}

// RefreshSweep runs the out-of-beam microbenchmark on a damaged device at
// each refresh period (modulated via the "modified GPU BIOS") and counts
// distinct erroneous cells.
func RefreshSweep(dev *dram.Device, periods []float64, seed int64) (RefreshSweepResult, error) {
	res := RefreshSweepResult{Periods: periods}
	origPeriod := dev.RefreshPeriod
	defer func() { dev.RefreshPeriod = origPeriod }()

	t := 1000.0 // arbitrary out-of-beam clock
	for i, p := range periods {
		dev.RefreshPeriod = p
		log := microbench.Run(microbench.Config{
			Device:      dev,
			Pattern:     microbench.AllZero,
			WritePasses: 2, // data + inverse covers both leak polarities
			StartTime:   t,
			Seed:        seed + int64(i),
			DiscardProb: -1, // keep every run; discards are irrelevant here
		})
		t = log.EndTime + 1
		cells := map[[2]int64]bool{}
		for _, r := range log.Records {
			for k := 0; k < hbm2.EntryBytes; k++ {
				diff := r.Expected[k] ^ r.Got[k]
				for b := 0; b < 8; b++ {
					if diff>>uint(b)&1 != 0 {
						cells[[2]int64{r.Entry, int64(k*8 + b)}] = true
					}
				}
			}
		}
		res.Counts = append(res.Counts, len(cells))
	}

	if len(periods) < 3 {
		// Too few points for the Fig. 3b fit; counts alone are valid
		// (the annealing experiment uses two periods).
		return res, nil
	}
	xs := make([]float64, len(periods))
	ys := make([]float64, len(periods))
	for i := range periods {
		xs[i] = periods[i]
		ys[i] = float64(res.Counts[i])
	}
	mu, sigma, scale, err := stats.NormalCDFFit(xs, ys)
	if err != nil {
		return res, err
	}
	res.FitMu, res.FitSigma, res.FitScale = mu, sigma, scale
	for _, p := range periods {
		res.Predicted = append(res.Predicted, scale*stats.NormalCDF(p, mu, sigma))
	}
	return res, nil
}

// AccumulationResult reproduces Fig. 3c: cumulative intermittent-error
// count versus cumulative fluence, with a linear fit.
type AccumulationResult struct {
	Fluence []float64
	Damaged []int
	Fit     stats.LinearFit
}

// Accumulation exposes a fresh GPU step by step, running the
// microbenchmark continuously and counting entries classified as damaged
// (errors in two or more write passes).
func Accumulation(seed int64, steps int, stepDuration float64) (AccumulationResult, error) {
	dev := dram.New(hbm2.V100(), dram.DefaultRefreshPeriod)
	b := beam.New(dev, beam.Config{Seed: seed})
	var res AccumulationResult

	passesWithError := map[int64]map[int]bool{}
	passBase := 0
	t := 0.0
	for step := 0; step < steps; step++ {
		// Beam exposure with the benchmark running.
		log := microbench.Run(microbench.Config{
			Device:       dev,
			Beam:         b,
			Pattern:      microbench.PatternKind(step % int(microbench.NumPatterns)),
			PassDuration: stepDuration / 210, // 10 writes + 200 reads
			StartTime:    t,
			Seed:         seed + int64(step),
			DiscardProb:  -1,
		})
		t = log.EndTime
		for _, r := range log.Records {
			m := passesWithError[r.Entry]
			if m == nil {
				m = map[int]bool{}
				passesWithError[r.Entry] = m
			}
			m[passBase+r.WritePass] = true
		}
		passBase += 1000
		damaged := 0
		for _, passes := range passesWithError {
			if len(passes) >= 2 {
				damaged++
			}
		}
		res.Fluence = append(res.Fluence, b.Fluence())
		res.Damaged = append(res.Damaged, damaged)
	}

	xs := make([]float64, len(res.Fluence))
	ys := make([]float64, len(res.Damaged))
	for i := range xs {
		xs[i] = res.Fluence[i]
		ys[i] = float64(res.Damaged[i])
	}
	fit, err := stats.Linear(xs, ys)
	if err != nil {
		return res, err
	}
	res.Fit = fit
	return res, nil
}

// campaignMTTE is the in-beam mean time to event in seconds. The real
// campaign's was tens of seconds; a faster rate shortens simulation
// without affecting clustering, since it stays far above the read-pass
// duration.
const campaignMTTE float64 = 5

// CampaignConfig drives a soft-error pattern campaign (Figs. 4/5, Table 1).
type CampaignConfig struct {
	Seed int64
	// Runs is the number of microbenchmark runs (patterns round-robin).
	Runs int
	// OnDie, when non-nil, installs a per-die SEC ECC stage on the
	// campaign device before exposure: every microbenchmark read passes
	// through the die's silent correct/miscorrect behavior, distorting
	// the observed error patterns (single-bit raw faults vanish, 2-bit
	// faults inflate to 3-bit). The raw fault schedule is unchanged —
	// reads never consume beam RNG — so a campaign with and without a
	// stage differs only in observation.
	OnDie dram.OnDieStage
	// OnRun, when set, is called after each completed microbenchmark run
	// with the number of completed runs, the total, and the run's log
	// (progress reporting). It must not mutate the log.
	OnRun func(completed, total int, log *microbench.Log)
	// Ctx, when non-nil, makes the campaign cancellable: once done, the
	// in-flight run is discarded and CampaignLogs returns the logs of the
	// runs completed before it, which equal the same prefix of an
	// uninterrupted campaign.
	Ctx context.Context
}

// CampaignLogs runs the beam campaign and returns the raw microbenchmark
// logs (one per completed run), for persistence or custom
// post-processing. Every run shares the campaign's device, beam and
// clock. The campaign records an obs span tree (campaign ->
// device_setup, run -> write_pass/read_scan/evaluate) on the default
// tracer; telemetry never touches the simulation RNG, so instrumented
// and bare campaigns produce identical logs for the same config.
func CampaignLogs(cfg CampaignConfig) []*microbench.Log {
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

	var logs []*microbench.Log
	t := 0.0
	for run := 0; run < cfg.Runs; run++ {
		if cfg.Ctx != nil && cfg.Ctx.Err() != nil {
			break
		}
		rs := span.Child("run")
		log := microbench.Run(microbench.Config{
			Device:    dev,
			Beam:      b,
			Pattern:   microbench.PatternKind(run % int(microbench.NumPatterns)),
			StartTime: t,
			Seed:      cfg.Seed*1_000_003 + int64(run),
			Span:      rs,
			Ctx:       cfg.Ctx,
		})
		rs.SetAttr("pattern", log.Pattern.String())
		rs.Finish()
		if log.Cancelled {
			// Partial run: its records and clock must not enter the
			// campaign.
			break
		}
		t = log.EndTime
		logs = append(logs, log)
		if cfg.OnRun != nil {
			cfg.OnRun(run+1, cfg.Runs, log)
		}
	}
	return logs
}

// Campaign runs the beam campaign and post-processes it.
func Campaign(cfg CampaignConfig) *classify.Analysis {
	return classify.Analyze(CampaignLogs(cfg), classify.Options{})
}

// UtilizationPoint is one sweep measurement.
type UtilizationPoint struct {
	Utilization float64
	MultiBit    stats.Proportion // fraction of events that are MBSE+MBME
	Events      int
}

// UtilizationSweep reproduces §5's utilization experiment: the share of
// broad-and-severe logic errors grows with memory utilization while array
// errors depend only on exposure time.
func UtilizationSweep(seed int64, utils []float64, runsPer int) []UtilizationPoint {
	var out []UtilizationPoint
	for i, u := range utils {
		dev := dram.New(hbm2.V100(), dram.DefaultRefreshPeriod)
		b := beam.New(dev, beam.Config{
			Seed:           seed + int64(i)*101,
			SEURatePerFlux: 1 / (5 * beam.ChipIRFlux),
		})
		var logs []*microbench.Log
		t := 0.0
		for run := 0; run < runsPer; run++ {
			log := microbench.Run(microbench.Config{
				Device:      dev,
				Beam:        b,
				Pattern:     microbench.PatternKind(run % int(microbench.NumPatterns)),
				Utilization: u,
				StartTime:   t,
				Seed:        seed + int64(i*runsPer+run),
			})
			t = log.EndTime
			logs = append(logs, log)
		}
		an := classify.Analyze(logs, classify.Options{})
		out = append(out, UtilizationPoint{
			Utilization: u,
			MultiBit:    an.MultiBitFraction(),
			Events:      len(an.Events),
		})
	}
	return out
}

// AnnealingResult reproduces the §4 annealing observation: weak-cell
// counts at short refresh periods fall more after time outside the beam
// than counts at long periods.
type AnnealingResult struct {
	Periods      []float64
	Before       []int
	After        []int
	RelativeDrop []float64
}

// Annealing measures weak-cell counts before and after resting the device
// outside the beam.
func Annealing(dev *dram.Device, b *beam.Beam, periods []float64, restDuration float64, seed int64) (AnnealingResult, error) {
	res := AnnealingResult{Periods: periods}
	before, err := RefreshSweep(dev, periods, seed)
	if err != nil {
		return res, err
	}
	b.Rest(restDuration)
	after, err := RefreshSweep(dev, periods, seed+999)
	if err != nil {
		return res, err
	}
	res.Before = before.Counts
	res.After = after.Counts
	for i := range periods {
		drop := 0.0
		if before.Counts[i] > 0 {
			drop = 1 - float64(after.Counts[i])/float64(before.Counts[i])
		}
		res.RelativeDrop = append(res.RelativeDrop, drop)
	}
	return res, nil
}
