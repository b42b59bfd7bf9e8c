// Package xid is the fleet health plane's event taxonomy: a small,
// closed set of Xid-style error codes (modeled on the NVIDIA Xid codes
// gpud scans dmesg for) covering the DRAM soft-error lifecycle this
// repository simulates. Every event a node agent emits carries one of
// these codes, and every code carries classification metadata — a
// severity, a suggested remediation, and risk flags — so the fleet
// coordinator can rank and act on raw event streams without parsing
// free text.
//
// The numbers intentionally mirror the real Xid space where a natural
// counterpart exists (48 = double-bit ECC, 63/64 = row remapping, 79 =
// fallen off the bus, 92 = high single-bit rate, 94/95 = contained /
// uncontained ECC), so operators' Xid intuition transfers; codes
// without a DRAM-soft-error meaning are simply absent.
package xid

import (
	"fmt"
	"sort"
)

// Severity grades how alarming one event is on its own.
type Severity int

const (
	// Info events are routine telemetry (a corrected error).
	Info Severity = iota
	// Warn events indicate elevated risk worth tracking.
	Warn
	// Critical events demand action on this node.
	Critical
	// Fatal events mean the node is already lost.
	Fatal
)

func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warn:
		return "warn"
	case Critical:
		return "critical"
	case Fatal:
		return "fatal"
	default:
		return fmt.Sprintf("Severity(%d)", int(s))
	}
}

// Remediation is the suggested operator/fleet response to one event.
type Remediation int

const (
	// RemedNone: no action; the hardware handled it.
	RemedNone Remediation = iota
	// RemedMonitor: watch the node's rolling window.
	RemedMonitor
	// RemedReset: a GPU reset clears the condition (e.g. applies queued
	// row remaps).
	RemedReset
	// RemedDrain: stop scheduling work; finish or migrate what's
	// running, then reset/diagnose.
	RemedDrain
	// RemedRetire: remove the node from the fleet (RMA path).
	RemedRetire
)

func (r Remediation) String() string {
	switch r {
	case RemedNone:
		return "none"
	case RemedMonitor:
		return "monitor"
	case RemedReset:
		return "reset"
	case RemedDrain:
		return "drain"
	case RemedRetire:
		return "retire"
	default:
		return fmt.Sprintf("Remediation(%d)", int(r))
	}
}

// The taxonomy. Constants, not iota: the values are wire protocol.
const (
	// DoubleBitECC is a detected-uncorrectable (DUE) memory error the
	// driver contained to the erroring context.
	DoubleBitECC = 48
	// RowRemapRecorded means a weak row crossed the retirement
	// threshold and was remapped to a spare (pending a reset on real
	// hardware).
	RowRemapRecorded = 63
	// RowRemapFailure means a row needed retirement but the spare-row
	// pool was exhausted — the canonical RMA trigger.
	RowRemapFailure = 64
	// OffTheBus means the node stopped responding entirely.
	OffTheBus = 79
	// HighSBERate is a weak-cell storm: corrected single-bit errors in
	// the rolling window crossed the storm threshold.
	HighSBERate = 92
	// ContainedECC is a corrected (DCE) memory error — routine, but the
	// per-node rate is the strongest failure predictor the fleet has.
	ContainedECC = 94
	// UncontainedECC is a DUE whose blast radius could not be contained
	// to one context; data integrity of the whole node is suspect.
	UncontainedECC = 95
)

// Detail is one code's classification metadata.
type Detail struct {
	ID          int         `json:"id"`
	Name        string      `json:"name"`
	Severity    Severity    `json:"-"`
	Remediation Remediation `json:"-"`
	// SeverityName / RemediationName are the JSON views of the enums.
	SeverityName    string `json:"severity"`
	RemediationName string `json:"remediation"`
	Description     string `json:"description"`
	// FBCorruption: framebuffer (DRAM) contents were or may have been
	// corrupted.
	FBCorruption bool `json:"fb_corruption"`
	// SDCRisk: the condition correlates with silent data corruption.
	SDCRisk bool `json:"sdc_risk"`
}

var details = map[int]Detail{
	DoubleBitECC: {
		ID: DoubleBitECC, Name: "Double Bit ECC Error",
		Severity: Critical, Remediation: RemedReset,
		Description:  "Detected-uncorrectable DRAM error; affected context lost. Reset to scrub; drain if recurring.",
		FBCorruption: true,
	},
	RowRemapRecorded: {
		ID: RowRemapRecorded, Name: "Row Remapping Recorded",
		Severity: Warn, Remediation: RemedReset,
		Description: "Weak row crossed the retirement threshold and was remapped to a spare row.",
	},
	RowRemapFailure: {
		ID: RowRemapFailure, Name: "Row Remapping Failure",
		Severity: Critical, Remediation: RemedRetire,
		Description:  "Row retirement required but the spare-row pool is exhausted; node should leave the fleet.",
		FBCorruption: true, SDCRisk: true,
	},
	OffTheBus: {
		ID: OffTheBus, Name: "GPU Fallen Off The Bus",
		Severity: Fatal, Remediation: RemedRetire,
		Description: "Node stopped responding; no further telemetry will arrive.",
	},
	HighSBERate: {
		ID: HighSBERate, Name: "High Single-Bit ECC Rate",
		Severity: Warn, Remediation: RemedMonitor,
		Description: "Corrected-error rate in the rolling window crossed the storm threshold (weak-cell population active).",
		SDCRisk:     true,
	},
	ContainedECC: {
		ID: ContainedECC, Name: "Contained ECC Error",
		Severity: Info, Remediation: RemedNone,
		Description: "Corrected DRAM error (DCE); no action needed, rate feeds failure prediction.",
	},
	UncontainedECC: {
		ID: UncontainedECC, Name: "Uncontained ECC Error",
		Severity: Critical, Remediation: RemedDrain,
		Description:  "Uncorrectable error escaped containment; node data integrity suspect until drained and reset.",
		FBCorruption: true, SDCRisk: true,
	},
}

// Lookup returns the metadata for code, and whether the code is known.
func Lookup(code int) (Detail, bool) {
	d, ok := details[code]
	return d, ok
}

// Known reports whether code is part of the taxonomy.
func Known(code int) bool {
	_, ok := details[code]
	return ok
}

// Codes returns every taxonomy code in ascending order.
func Codes() []int {
	out := make([]int, 0, len(details))
	for c := range details {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

func init() {
	// The JSON enum views are derived, not hand-maintained.
	for c, d := range details {
		d.SeverityName = d.Severity.String()
		d.RemediationName = d.Remediation.String()
		details[c] = d
	}
}

// Event is one health event on one node. Events are value types and
// flow over the wire as part of fleet report frames.
type Event struct {
	// Node is the reporting node's ID.
	Node string `json:"node"`
	// Code is the taxonomy code.
	Code int `json:"xid"`
	// AtHours is the simulated fleet time of the event.
	AtHours float64 `json:"at_hours"`
	// Row is the DRAM row involved, when the code concerns one (-1
	// otherwise).
	Row int64 `json:"row,omitempty"`
	// Count aggregates identical events deduplicated at the agent
	// (>= 1; 0 means 1 for wire compactness).
	Count int `json:"count,omitempty"`
}

// N returns the event's aggregated count (Count with 0 meaning 1).
func (e Event) N() int {
	if e.Count <= 0 {
		return 1
	}
	return e.Count
}

// Detail returns the event's taxonomy metadata; unknown codes return a
// zero Detail (callers validate codes at the wire boundary).
func (e Event) Detail() Detail {
	return details[e.Code]
}

// Key identifies an event stream: node and code, plus the row for a
// row-scoped code (Row is -1 for every other code).
type Key struct {
	Node string
	Code int
	Row  int64
}

// DedupKey identifies the stream this event aggregates into: node and
// code, plus the row for row-scoped codes. Agents collapse same-key
// events within a reporting interval into one Event with a Count.
func (e Event) DedupKey() Key {
	k := Key{Node: e.Node, Code: e.Code, Row: -1}
	switch e.Code {
	case RowRemapRecorded, RowRemapFailure:
		k.Row = e.Row
	}
	return k
}
