package fleet

import (
	"math"
	"strings"
	"testing"

	"hbm2ecc/internal/fleet/xid"
)

func validReport() ReportRequest {
	return ReportRequest{
		NodeID:  "node-00001",
		Seq:     1,
		AtHours: 12,
		Health:  "ok",
		Events: []xid.Event{
			{Node: "node-00001", Code: xid.ContainedECC, AtHours: 11.5, Row: 42, Count: 3},
		},
	}
}

func TestReportRequestValidate(t *testing.T) {
	valid := validReport()
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*ReportRequest)
	}{
		{"empty node", func(r *ReportRequest) { r.NodeID = "" }},
		{"long node", func(r *ReportRequest) { r.NodeID = strings.Repeat("x", MaxNodeID+1) }},
		{"control byte in node", func(r *ReportRequest) { r.NodeID = "a\nb" }},
		{"space in node", func(r *ReportRequest) { r.NodeID = "a b" }},
		{"zero seq", func(r *ReportRequest) { r.Seq = 0 }},
		{"NaN hours", func(r *ReportRequest) { r.AtHours = math.NaN() }},
		{"negative hours", func(r *ReportRequest) { r.AtHours = -1 }},
		{"bad health", func(r *ReportRequest) { r.Health = "meh" }},
		{"foreign event", func(r *ReportRequest) { r.Events[0].Node = "other" }},
		{"unknown xid", func(r *ReportRequest) { r.Events[0].Code = 13 }},
		{"negative count", func(r *ReportRequest) { r.Events[0].Count = -1 }},
		{"huge count", func(r *ReportRequest) { r.Events[0].Count = MaxEventCount + 1 }},
		{"event from the future", func(r *ReportRequest) { r.Events[0].AtHours = r.AtHours + 1 }},
		{"too many events", func(r *ReportRequest) {
			r.Events = make([]xid.Event, MaxEventsPerReport+1)
			for i := range r.Events {
				r.Events[i] = xid.Event{Node: r.NodeID, Code: xid.ContainedECC, AtHours: 1}
			}
		}},
	}
	for _, tc := range cases {
		r := validReport()
		tc.mutate(&r)
		if err := r.Validate(); err == nil {
			t.Errorf("%s: validated", tc.name)
		}
	}
}
