package fieldsim

import (
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

// TestFrame: an idle agent's frame is an empty heartbeat; a flooded
// agent's frame carries every drained event with the agent's typed
// health and recommendation, and passes the coordinator's checks.
func TestFrame(t *testing.T) {
	a := fleet.NewAgent("n1", fleet.AgentOptions{})
	req := Frame(a, 1)
	if req.NodeID != "n1" || req.AtHours != 1 || len(req.Events) != 0 || req.Health != fleet.Healthy || req.Recommend != xid.RemedNone {
		t.Fatalf("idle agent frame = %+v, want an empty heartbeat", req)
	}

	// A row's second DUE retires it (Xid 63) or, once the spares are
	// gone, fails to (Xid 64). Both codes are row-scoped, so 'rows' rows
	// give rows+1 deduplicated events: one Xid 48 plus one per row.
	const rows = 600
	for r := 0; r < rows; r++ {
		a.ObserveDUE(2, int64(r), false)
		a.ObserveDUE(2, int64(r), false)
	}
	req = Frame(a, 2)
	if len(req.Events) != rows+1 {
		t.Errorf("frame carries %d events, want all %d drained", len(req.Events), rows+1)
	}
	if req.Health != fleet.Critical || req.Recommend != xid.RemedRetire {
		t.Errorf("flooded agent frame: health %v, recommend %v; want critical, retire", req.Health, req.Recommend)
	}
	if _, err := fleet.NewCoordinator(fleet.CoordinatorOptions{}).Report(req); err != nil {
		t.Errorf("coordinator refused the frame: %v", err)
	}
	if again := Frame(a, 3); len(again.Events) != 0 {
		t.Errorf("second frame carries %d events, want the outbox drained", len(again.Events))
	}
}
