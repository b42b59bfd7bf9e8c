package fleet

import (
	"math"
	"testing"

	"hbm2ecc/internal/fleet/xid"
)

func validReport() ReportRequest {
	return ReportRequest{
		NodeID:  "node-00001",
		AtHours: 12,
		Events: []xid.Event{
			{Node: "node-00001", Code: xid.ContainedECC, AtHours: 11.5, Row: 42, Count: 3},
		},
	}
}

func TestReportRequestValidate(t *testing.T) {
	valid := validReport()
	if err := valid.validate(); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*ReportRequest)
	}{
		{"empty node", func(r *ReportRequest) { r.NodeID = "" }},
		{"NaN hours", func(r *ReportRequest) { r.AtHours = math.NaN() }},
		{"infinite hours", func(r *ReportRequest) { r.AtHours = math.Inf(1) }},
		{"negative hours", func(r *ReportRequest) { r.AtHours = -1 }},
		{"foreign event", func(r *ReportRequest) { r.Events[0].Node = "other" }},
		{"unknown xid", func(r *ReportRequest) { r.Events[0].Code = 13 }},
		{"negative count", func(r *ReportRequest) { r.Events[0].Count = -1 }},
		{"event from the future", func(r *ReportRequest) { r.Events[0].AtHours = r.AtHours + 1 }},
		{"event at a negative hour", func(r *ReportRequest) { r.Events[0].AtHours = -1 }},
	}
	for _, tc := range cases {
		r := validReport()
		tc.mutate(&r)
		if err := r.validate(); err == nil {
			t.Errorf("%s: validated", tc.name)
		}
	}
}
