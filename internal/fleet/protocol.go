package fleet

import (
	"errors"
	"fmt"
	"math"

	"hbm2ecc/internal/fleet/xid"
)

// Report protocol: an agent hands the coordinator a ReportRequest
// (Coordinator.Report, or a Reporter such as Loopback) and gets back a
// ReportResponse carrying its standing command; Coordinator.Fleet
// answers with a FleetResponse, the ranked fleet. Every frame is
// validated against the bounds below before it is ingested.
const (
	// ProtocolVersion is stamped on every FleetResponse, so a stored
	// fleet JSON says which protocol produced it.
	ProtocolVersion = 1
	// MaxNodeID bounds node identifier length.
	MaxNodeID = 128
	// MaxEventsPerReport bounds one report's (deduplicated) event batch.
	MaxEventsPerReport = 512
	// MaxEventCount bounds one event's dedup aggregation count.
	MaxEventCount = 1 << 30
)

// ReportRequest is one node agent's batched health report: a
// heartbeat (renewing the node's liveness lease) plus the events
// accumulated since the last report.
type ReportRequest struct {
	NodeID string `json:"node_id"`
	// Seq increments per report per node; the coordinator ignores
	// replays (seq <= last seen) so retried reports are idempotent.
	Seq uint64 `json:"seq"`
	// AtHours is the node's simulated clock at report time.
	AtHours float64 `json:"at_hours"`
	// Health and Recommend are the agent's self-assessment (wire forms
	// of Health and xid.Remediation).
	Health    string `json:"health"`
	Recommend string `json:"recommend,omitempty"`
	// Events are the deduplicated events since the last report.
	Events []xid.Event `json:"events,omitempty"`
}

// Validate checks the report against wire bounds and the taxonomy.
func (r *ReportRequest) Validate() error {
	if err := validNodeID(r.NodeID); err != nil {
		return err
	}
	if r.Seq == 0 {
		return errors.New("fleet: report seq must be >= 1")
	}
	if math.IsNaN(r.AtHours) || math.IsInf(r.AtHours, 0) || r.AtHours < 0 {
		return fmt.Errorf("fleet: at_hours %v out of range", r.AtHours)
	}
	if _, ok := HealthFromString(r.Health); !ok {
		return fmt.Errorf("fleet: unknown health %q", r.Health)
	}
	if len(r.Events) > MaxEventsPerReport {
		return fmt.Errorf("fleet: %d events in one report (max %d)", len(r.Events), MaxEventsPerReport)
	}
	for i := range r.Events {
		e := &r.Events[i]
		if e.Node != r.NodeID {
			return fmt.Errorf("fleet: event %d carries node %q, report is from %q", i, e.Node, r.NodeID)
		}
		if !xid.Known(e.Code) {
			return fmt.Errorf("fleet: event %d has unknown xid %d", i, e.Code)
		}
		if e.Count < 0 || e.Count > MaxEventCount {
			return fmt.Errorf("fleet: event %d count %d out of range", i, e.Count)
		}
		if math.IsNaN(e.AtHours) || math.IsInf(e.AtHours, 0) || e.AtHours < 0 || e.AtHours > r.AtHours {
			return fmt.Errorf("fleet: event %d at_hours %v outside [0, %v]", i, e.AtHours, r.AtHours)
		}
	}
	return nil
}

func validNodeID(id string) error {
	if id == "" {
		return errors.New("fleet: empty node id")
	}
	if len(id) > MaxNodeID {
		return fmt.Errorf("fleet: node id longer than %d bytes", MaxNodeID)
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if c < 0x21 || c > 0x7e {
			return fmt.Errorf("fleet: node id contains byte %#x (printable ASCII only)", c)
		}
	}
	return nil
}

// ReportResponse acknowledges a report and carries the coordinator's
// remediation command for the node, if any.
type ReportResponse struct {
	// Duplicate marks a replayed (seq <= last seen) report.
	Duplicate bool `json:"duplicate,omitempty"`
	// Command is the coordinator's standing remediation order for this
	// node: "", "drain" or "retire".
	Command string `json:"command,omitempty"`
}

// Coordinator-issued node commands.
const (
	CommandDrain  = "drain"
	CommandRetire = "retire"
)

// NodeSummary is one node's coordinator-side view, as ranked by
// Coordinator.Fleet.
type NodeSummary struct {
	ID     string `json:"id"`
	Status string `json:"status"` // "online" | "offline" | "draining" | "retired"
	Health string `json:"health"`
	// Score is the policy's predicted-failure score (higher = rank
	// closer to retirement).
	Score float64 `json:"score"`
	// Window maps taxonomy code (as decimal string, JSON keys are
	// strings) to its count in the coordinator's rolling window.
	Window map[string]int `json:"window,omitempty"`
	// LastSeenHours is the node's last report time.
	LastSeenHours float64 `json:"last_seen_hours"`
	// Recommend echoes the agent's own suggestion; Command is the
	// coordinator's standing order.
	Recommend string `json:"recommend,omitempty"`
	Command   string `json:"command,omitempty"`
	// Events counts lifetime ingested events for the node.
	Events int64 `json:"events"`
}

// FleetResponse is Coordinator.Fleet's answer: fleet-wide counts plus
// the top nodes by score.
type FleetResponse struct {
	Version  int     `json:"version"`
	SimHours float64 `json:"sim_hours"`
	// Nodes counts by status.
	Total    int `json:"total"`
	Online   int `json:"online"`
	Offline  int `json:"offline"`
	Draining int `json:"draining"`
	Retired  int `json:"retired"`
	// Ranked are the top nodes by descending score.
	Ranked []NodeSummary `json:"ranked,omitempty"`
}
