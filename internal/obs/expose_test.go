package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestPrometheusGolden locks the exposition format against a registry
// with every metric kind, label escaping, and histogram expansion.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("beam_events_total", "Injected events.", "source").With("array").Add(7)
	r.Counter("beam_events_total", "Injected events.", "source").With("logic").Add(2)
	r.Gauge("fleet_fluence", "Cumulative fluence.").With().Set(1.5e10)
	r.Gauge("weird", "Has \"quotes\" and back\\slash.", "k").With("a\"b\\c").Set(-2)
	h := r.Histogram("phase_seconds", "Phase durations.", []float64{0.1, 1}).With()
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(3)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	// Raw string: backslashes below are literal bytes of the exposition.
	want := `# HELP beam_events_total Injected events.
# TYPE beam_events_total counter
beam_events_total{source="array"} 7
beam_events_total{source="logic"} 2
# HELP fleet_fluence Cumulative fluence.
# TYPE fleet_fluence gauge
fleet_fluence 1.5e+10
# HELP phase_seconds Phase durations.
# TYPE phase_seconds histogram
phase_seconds_bucket{le="0.1"} 1
phase_seconds_bucket{le="1"} 2
phase_seconds_bucket{le="+Inf"} 3
phase_seconds_sum 3.55
phase_seconds_count 3
# HELP weird Has "quotes" and back\\slash.
# TYPE weird gauge
weird{k="a\"b\\c"} -2
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestJSONSnapshotRoundTrips(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "c", "x").With("1").Add(5)
	r.Histogram("h_s", "h", []float64{1}).With().Observe(0.5)
	raw, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if len(snap.Families) != 2 {
		t.Fatalf("families = %d, want 2", len(snap.Families))
	}
	if snap.Families[0].Name != "c_total" || snap.Families[0].Series[0].Value != 5 {
		t.Errorf("counter snapshot wrong: %+v", snap.Families[0])
	}
	hs := snap.Families[1].Series[0].Histogram
	if hs == nil || hs.Count != 1 || len(hs.Buckets) != 2 {
		t.Errorf("histogram snapshot wrong: %+v", hs)
	}
}
