package fieldsim

import (
	"errors"
	"testing"

	"hbm2ecc/internal/fleet"
	"hbm2ecc/internal/fleet/xid"
)

// TestProbeCheckClassifiesEveryEntryError: one check advances the
// device clock and fluence, every entry error of every soft-error event
// is exactly one of DCE, DUE or SDC, and the agent saw the DCEs and
// damaged entries as Xid 94 and the DUEs as Xid 48.
func TestProbeCheckClassifiesEveryEntryError(t *testing.T) {
	p := NewProbe(0, 7, 0.05, 1) // ~20 events over a ~1s check
	a := fleet.NewAgent(p.Node(), fleet.AgentOptions{})
	res := p.Check(a, 1)
	if p.clock <= 0 || p.beam.Fluence() <= 0 {
		t.Fatalf("check left clock %v, fluence %v", p.clock, p.beam.Fluence())
	}
	if res.Events == 0 || res.Entries < res.Events {
		t.Fatalf("check saw %d events over %d entry errors; want a non-empty check", res.Events, res.Entries)
	}
	if res.DCE+res.DUE+res.SDC != res.Entries {
		t.Errorf("DCE %d + DUE %d + SDC %d != %d entry errors", res.DCE, res.DUE, res.SDC, res.Entries)
	}
	if got := a.WindowCount(1, xid.ContainedECC); got != res.DCE+res.Damaged {
		t.Errorf("agent Xid 94 = %d, want DCE %d + damaged %d", got, res.DCE, res.Damaged)
	}
	if got := a.WindowCount(1, xid.DoubleBitECC); got != res.DUE {
		t.Errorf("agent Xid 48 = %d, want DUE %d", got, res.DUE)
	}
	if p.Checks() != 1 {
		t.Errorf("checks = %d, want 1", p.Checks())
	}
}

// TestProbeSaturatedDamageNotHealthy: a device exposed for five
// saturation fluences is full of weak cells, and one check leaves its
// agent unhealthy.
func TestProbeSaturatedDamageNotHealthy(t *testing.T) {
	p := NewProbe(0, 3, 5, 2)
	dur := 5 * p.beam.Damage.SaturationFluence / p.beam.Flux
	p.beam.Expose(p.clock, p.clock+dur, 0)
	p.clock += dur

	a := fleet.NewAgent(p.Node(), fleet.AgentOptions{})
	res := p.Check(a, 1)
	if res.Damaged == 0 {
		t.Fatal("saturated device showed no damaged entries")
	}
	if h, rec := a.Health(1); h == fleet.Healthy {
		t.Fatalf("saturated device healthy (recommend %s, %d damaged entries)", rec, res.Damaged)
	}
}

// TestProbeFloodNotHealthy: a beam flooding the device (MTTE 2ms, ~600
// events per check) leaves its agent unhealthy after one check.
func TestProbeFloodNotHealthy(t *testing.T) {
	p := NewProbe(0, 11, 0.002, 1)
	a := fleet.NewAgent(p.Node(), fleet.AgentOptions{})
	res := p.Check(a, 1)
	if res.Records < 1000 {
		t.Fatalf("flood logged only %d records", res.Records)
	}
	if h, rec := a.Health(1); h == fleet.Healthy {
		t.Fatalf("flooded device healthy (recommend %s): %+v", rec, res)
	}
}

// TestFramesSplitsAndHeartbeats: the frame builder sends one empty
// heartbeat frame for an idle agent, splits a large outbox at
// MaxEventsPerReport with consecutive sequence numbers, and stops at the
// first send error.
func TestFramesSplitsAndHeartbeats(t *testing.T) {
	a := fleet.NewAgent("n1", fleet.AgentOptions{})
	var seq uint64
	var got []fleet.ReportRequest
	send := func(req fleet.ReportRequest) error {
		got = append(got, req)
		return nil
	}
	if err := Frames(a, &seq, 1, send); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || len(got[0].Events) != 0 || got[0].Seq != 1 || got[0].Health != "ok" {
		t.Fatalf("idle agent frames = %+v, want one empty heartbeat", got)
	}

	// A row's second DUE retires it (Xid 63) or, once the spares are
	// gone, fails to (Xid 64). Both codes are row-scoped, so 'rows' rows
	// give rows+1 deduplicated events: one Xid 48 plus one per row.
	rows := fleet.MaxEventsPerReport + 10
	for r := 0; r < rows; r++ {
		a.ObserveDUE(2, int64(r), false)
		a.ObserveDUE(2, int64(r), false)
	}
	got = nil
	if err := Frames(a, &seq, 2, send); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || len(got[0].Events) != fleet.MaxEventsPerReport {
		t.Fatalf("frames = %d (first carries %d events), want 2 split at %d",
			len(got), len(got[0].Events), fleet.MaxEventsPerReport)
	}
	for i, req := range got {
		if req.Seq != uint64(i+2) || req.NodeID != "n1" || req.AtHours != 2 || req.Health != "critical" {
			t.Errorf("frame %d = seq %d node %q at %v health %q", i, req.Seq, req.NodeID, req.AtHours, req.Health)
		}
		if err := req.Validate(); err != nil {
			t.Errorf("frame %d invalid: %v", i, err)
		}
	}

	boom := errors.New("boom")
	a.ObserveDUE(3, 1, false)
	calls := 0
	err := Frames(a, &seq, 3, func(fleet.ReportRequest) error { calls++; return boom })
	if !errors.Is(err, boom) || calls != 1 {
		t.Fatalf("send error: err %v after %d calls, want boom after 1", err, calls)
	}
}
