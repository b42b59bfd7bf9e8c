package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"hbm2ecc/internal/fieldsim"
	"hbm2ecc/internal/fleet"
)

func probes(n int, seed int64, mtte float64) []*fieldsim.Probe {
	out := make([]*fieldsim.Probe, n)
	for i := range out {
		out[i] = fieldsim.NewProbe(i, seed, mtte, 1)
	}
	return out
}

// fleetJSON sweeps n devices once over a fresh coordinator's Loopback
// and returns the coordinator's ranked fleet and its JSON.
func fleetJSON(t *testing.T, n int, seed int64, mtte float64) ([]*fieldsim.Probe, fleet.FleetResponse, []byte) {
	t.Helper()
	ps := probes(n, seed, mtte)
	coord := fleet.NewCoordinator(fleet.CoordinatorOptions{})
	if err := sweep(coord.Loopback(), ps); err != nil {
		t.Fatal(err)
	}
	f := coord.Fleet(n)
	b, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	return ps, f, b
}

// TestSweepReportsEveryDeviceDeterministically: N probes reporting over
// Loopback give a coordinator with N nodes, each checked once and last
// seen at simulated hour 1. One seed gives byte-identical fleet JSON
// however the device goroutines interleave.
func TestSweepReportsEveryDeviceDeterministically(t *testing.T) {
	const n = 4
	ps, f, first := fleetJSON(t, n, 2021, 5)
	if f.Total != n || len(f.Ranked) != n {
		t.Fatalf("fleet %+v, want %d nodes", f, n)
	}
	for _, p := range ps {
		if p.Checks() != 1 {
			t.Errorf("%s checked %d times, want 1", p.Node(), p.Checks())
		}
	}
	for _, s := range f.Ranked {
		if s.LastSeenHours != 1 {
			t.Errorf("%s last seen at hour %v, want 1", s.ID, s.LastSeenHours)
		}
	}
	_, _, again := fleetJSON(t, n, 2021, 5)
	if !bytes.Equal(first, again) {
		t.Fatalf("same seed, different fleet JSON:\n%s\n%s", first, again)
	}
}

// TestSweepStopsCommandedDevices: a flooded device is drained or
// retired after its first report, and never ranked ok.
func TestSweepStopsCommandedDevices(t *testing.T) {
	const n = 2
	_, f, _ := fleetJSON(t, n, 11, 0.002)
	if f.Draining+f.Retired != n {
		t.Fatalf("fleet %+v: want every flooded device drained or retired", f)
	}
	for _, s := range f.Ranked {
		if s.Health == "ok" || s.Command == "" {
			t.Errorf("flooded %s ranked health %q command %q", s.ID, s.Health, s.Command)
		}
	}
}
