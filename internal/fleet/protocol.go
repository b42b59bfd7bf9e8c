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
// answers with a FleetResponse, the ranked fleet. Requests and
// responses are Go values that never leave the process.

// ProtocolVersion is stamped on every FleetResponse, so a stored fleet
// JSON says which protocol produced it.
const ProtocolVersion = 1

// ReportRequest is one node agent's batched health report: a
// heartbeat (renewing the node's liveness lease) plus the events
// accumulated since the last report.
type ReportRequest struct {
	NodeID string
	// AtHours is the node's simulated clock at report time.
	AtHours float64
	// Health and Recommend are the agent's self-assessment.
	Health    Health
	Recommend xid.Remediation
	// Events are the deduplicated events since the last report.
	Events []xid.Event
	// Handle is the node's handle from an earlier ReportResponse. It
	// lets the coordinator find the node without an id lookup; 0, or a
	// handle that names no node with this NodeID, falls back to one.
	Handle int
}

// validate checks the report's content: a named node at a finite,
// non-negative hour, whose events are its own, in the taxonomy, counted
// non-negatively and no later than the report.
func (r *ReportRequest) validate() error {
	if r.NodeID == "" {
		return errors.New("fleet: empty node id")
	}
	if math.IsNaN(r.AtHours) || math.IsInf(r.AtHours, 0) || r.AtHours < 0 {
		return fmt.Errorf("fleet: report hour %v out of range", r.AtHours)
	}
	for i := range r.Events {
		e := &r.Events[i]
		if e.Node != r.NodeID {
			return fmt.Errorf("fleet: event %d carries node %q, report is from %q", i, e.Node, r.NodeID)
		}
		if !xid.Known(e.Code) {
			return fmt.Errorf("fleet: event %d has unknown xid %d", i, e.Code)
		}
		if e.Count < 0 {
			return fmt.Errorf("fleet: event %d count %d is negative", i, e.Count)
		}
		if math.IsNaN(e.AtHours) || e.AtHours < 0 || e.AtHours > r.AtHours {
			return fmt.Errorf("fleet: event %d hour %v outside [0, %v]", i, e.AtHours, r.AtHours)
		}
	}
	return nil
}

// ReportResponse acknowledges a report and carries the coordinator's
// remediation command for the node, if any.
type ReportResponse struct {
	// Command is the coordinator's standing remediation order for this
	// node: "", "drain" or "retire".
	Command string
	// Handle names the node in the coordinator's table, for the node's
	// later reports (ReportRequest.Handle); 0 on a refused report.
	Handle int
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
