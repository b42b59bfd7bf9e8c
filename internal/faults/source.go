// Non-DRAM fault sources. The beam campaigns of "Experimental Findings
// on the Sources of Detected Unrecoverable Errors in GPUs" (NSREC 2021,
// PAPERS.md) show that most detected-unrecoverable errors on compute
// GPUs do not originate in the DRAM arrays at all: interconnect links,
// on-chip caches, and the scheduler/control logic each contribute DUE
// rates comparable to — and in aggregate larger than — the memory
// itself. A DRAM ECC scheme can therefore only ever remove the DRAM
// slice of the end-to-end failure rate; comparing schemes on pattern
// coverage alone overstates their field impact. This file is the
// taxonomy and the calibration weights that let the workload outcome
// engine (internal/workload) report end-to-end FIT instead.
//
// Like DefaultMix, the numbers here are calibration inputs, not outputs:
// the real generator was a neutron beam we do not have. Everything
// downstream measures outcomes blind.
package faults

import (
	"encoding/json"
	"fmt"
)

// Source identifies which subsystem a fault event originates in. DRAM
// events expand through the Injector geometry and are visible to the
// DRAM ECC scheme; the other sources sit outside the protection domain
// of any entry-level code.
type Source int

const (
	// SourceDRAM is a fault in the HBM2 arrays or their access logic —
	// the event classes of Kind, visible to DRAM ECC.
	SourceDRAM Source = iota
	// SourceInterconnect is a fault on the memory interconnect or NVLink
	// style fabric: link CRC/replay detects most of them (DUE), the rest
	// hang the transfer engine (crash).
	SourceInterconnect
	// SourceCache is a fault in the L1/L2 SRAM hierarchy: parity detects
	// the majority (DUE); the remainder returns corrupted data to the
	// pipeline silently — invisible to DRAM ECC by construction.
	SourceCache
	// SourceScheduler is a fault in warp-scheduler/control logic: the
	// kernel typically dies with a device-side fault (crash), sometimes
	// contained by the driver as a detected error (DUE).
	SourceScheduler
	NumSources
)

// sourceNames are the wire names; they are a strict closed set.
var sourceNames = [NumSources]string{
	SourceDRAM:         "dram",
	SourceInterconnect: "interconnect",
	SourceCache:        "cache",
	SourceScheduler:    "scheduler",
}

func (s Source) String() string {
	if s < 0 || s >= NumSources {
		return fmt.Sprintf("Source(%d)", int(s))
	}
	return sourceNames[s]
}

// Valid reports whether s is one of the defined sources.
func (s Source) Valid() bool { return s >= 0 && s < NumSources }

// ParseSource maps a wire name back to its Source, rejecting unknown
// names — the strict-codec discipline of internal/fleet applied to this
// enum.
func ParseSource(name string) (Source, error) {
	for s := Source(0); s < NumSources; s++ {
		if sourceNames[s] == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("faults: unknown source %q", name)
}

// MarshalJSON emits the enum name; out-of-range values are an error, not
// a silently-invented name.
func (s Source) MarshalJSON() ([]byte, error) {
	if !s.Valid() {
		return nil, fmt.Errorf("faults: cannot marshal invalid source %d", int(s))
	}
	return json.Marshal(s.String())
}

// UnmarshalJSON accepts exactly the enum names; numbers, null, and
// unknown strings are rejected.
func (s *Source) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return fmt.Errorf("faults: source must be a JSON string: %w", err)
	}
	v, err := ParseSource(name)
	if err != nil {
		return err
	}
	*s = v
	return nil
}

// DefaultSourceFIT is the per-source fault-event rate, in events per 10^9
// device-hours, striking live application state. The absolute scale is a
// modeled V100-class device under terrestrial neutron flux; the *ratios*
// follow the NSREC 2021 finding that non-DRAM sources contribute the
// majority of detected-unrecoverable errors: with every non-DRAM event
// being detected or fatal, DRAM at 260 FIT (of which a scheme corrects
// most) leaves interconnect+cache+scheduler (66+98+46 = 210 FIT)
// dominating the end-to-end DUE+crash rate for every scheme.
var DefaultSourceFIT = [NumSources]float64{
	SourceDRAM:         260,
	SourceInterconnect: 66,
	SourceCache:        98,
	SourceScheduler:    46,
}

// SourceProfile is the conditional behavior of one non-DRAM fault event.
// The three probabilities partition the event: detected (the driver
// contains it and kills the job — a DUE), fatal (the device falls off
// the bus or the kernel hangs — a crash), or silent (corrupted data
// continues into the pipeline; only SourceCache has a silent share, and
// its application-level outcome — masked or SDC — is decided by actually
// running the workload with the poisoned value). PDetected + PCrash +
// PSilent must be 1 for a well-formed profile.
type SourceProfile struct {
	PDetected float64 `json:"p_detected"`
	PCrash    float64 `json:"p_crash"`
	PSilent   float64 `json:"p_silent"`
}

// DefaultProfiles is the per-source conditional behavior. SourceDRAM is
// all-silent by convention: DRAM events are expanded through the
// Injector and their detection is decided by the ECC scheme under test,
// not by a profile constant.
var DefaultProfiles = [NumSources]SourceProfile{
	SourceDRAM:         {PSilent: 1},
	SourceInterconnect: {PDetected: 0.85, PCrash: 0.15},
	SourceCache:        {PDetected: 0.62, PCrash: 0.03, PSilent: 0.35},
	SourceScheduler:    {PDetected: 0.12, PCrash: 0.88},
}
