// Package workload is the application-outcome engine: it runs
// deterministic simulated kernels — tiled GEMM, tree reduction, and a
// small fixed-point DNN inference — over gpusim device memory while
// fault events strike mid-run, and classifies each run by what the
// *application* experienced: masked, tolerable SDC (DNN top-1
// unchanged), critical SDC, DUE, or crash.
//
// The Monte-Carlo evaluator (internal/evalmc) reports per-pattern
// correction rates; the field cares about end-to-end outcomes, which
// diverge sharply from raw bit rates.
// "Characterizing a Neutron-Induced Fault Model for DNNs" (PAPERS.md)
// measures DNN inference masking the large majority of injected faults;
// "Experimental Findings on the Sources of Detected Unrecoverable
// Errors in GPUs" shows most DUEs never touch the DRAM a scheme
// protects. Both effects are modeled here: the first by actually
// executing the kernels against faulted memory, the second by the
// non-DRAM source taxonomy of internal/faults (interconnect, cache,
// scheduler) with FIT weights, so DuetECC vs TrioECC vs SSC-DSD+ vs
// no-ECC are compared on end-to-end FIT instead of pattern coverage.
//
// Every run is deterministic given (seed, scheme, kernel, run index),
// and every (scheme, kernel) cell draws from its own seed stream, so
// cells evaluate in any order, or concurrently, into byte-identical
// outcome ledgers. Campaigns run on the shared
// cell-campaign engine, internal/campaign, as internal/evalmc does.
package workload

import (
	"encoding/json"
	"fmt"

	"hbm2ecc/internal/obs"
)

// Workload telemetry: outcome counters accumulate per (kernel, scheme,
// outcome) cell; the rate gauge tracks the most recent cell. Updates
// happen once per completed cell, never inside the per-run loop.
var (
	mRuns = obs.NewCounter("workload_runs_total",
		"Workload campaign runs classified, by kernel, scheme and outcome.",
		"kernel", "scheme", "outcome")
	mDecided = obs.NewCounter("workload_runs_decided_total",
		"Workload campaign runs settled from the kernel's access trace without executing the kernel, by kernel and scheme.",
		"kernel", "scheme")
	mRunRate = obs.NewGauge("workload_runs_per_sec",
		"Throughput of the latest workload campaign cell.", "kernel", "scheme")
	mInjected = obs.NewCounter("workload_faults_injected_total",
		"Fault events injected into workload runs, by source.", "source")
)

// Outcome classifies one workload run end to end.
type Outcome int

const (
	// Masked: the fault had no effect on the application's output —
	// corrected by ECC, struck dead or already-consumed data, or was
	// absorbed by the computation (e.g. ReLU clamping, argmax margins).
	Masked Outcome = iota
	// TolerableSDC: the output differs from the golden run but the
	// application-level answer stands — defined only for DNN inference,
	// where the top-1 class is unchanged while logits moved.
	TolerableSDC
	// CriticalSDC: the output is silently wrong — a numeric result
	// differs (GEMM, reduction) or the DNN's top-1 class flipped.
	CriticalSDC
	// DUE: a detected-uncorrectable error killed the job — the DRAM
	// scheme raised a detection, or a non-DRAM source was contained by
	// the driver. Data never escapes, availability is lost.
	DUE
	// Crash: the job died without a contained detection — device off
	// the bus, hung transfer engine, scheduler fault.
	Crash
	NumOutcomes
)

var outcomeNames = [NumOutcomes]string{
	Masked:       "masked",
	TolerableSDC: "tolerable_sdc",
	CriticalSDC:  "critical_sdc",
	DUE:          "due",
	Crash:        "crash",
}

func (o Outcome) String() string {
	if o < 0 || o >= NumOutcomes {
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
	return outcomeNames[o]
}

// Valid reports whether o is one of the defined outcomes.
func (o Outcome) Valid() bool { return o >= 0 && o < NumOutcomes }

// ParseOutcome maps a wire name back to its Outcome, rejecting unknown
// names.
func ParseOutcome(name string) (Outcome, error) {
	for o := Outcome(0); o < NumOutcomes; o++ {
		if outcomeNames[o] == name {
			return o, nil
		}
	}
	return 0, fmt.Errorf("workload: unknown outcome %q", name)
}

// MarshalJSON emits the enum name; invalid values error out rather than
// inventing a name.
func (o Outcome) MarshalJSON() ([]byte, error) {
	if !o.Valid() {
		return nil, fmt.Errorf("workload: cannot marshal invalid outcome %d", int(o))
	}
	return json.Marshal(o.String())
}

// UnmarshalJSON accepts exactly the enum names.
func (o *Outcome) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return fmt.Errorf("workload: outcome must be a JSON string: %w", err)
	}
	v, err := ParseOutcome(name)
	if err != nil {
		return err
	}
	*o = v
	return nil
}
