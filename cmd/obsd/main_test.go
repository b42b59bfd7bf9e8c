package main

import (
	"bytes"
	"context"
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

// fleetJSON runs sweeps sweeps of n devices over a fresh coordinator's
// Loopback and returns the coordinator's /v1/fleet JSON.
func fleetJSON(t *testing.T, n int, seed int64, mtte float64, sweeps int) ([]*fieldsim.Probe, fleet.FleetResponse, []byte) {
	t.Helper()
	ps := probes(n, seed, mtte)
	coord := fleet.NewCoordinator(fleet.CoordinatorOptions{})
	if err := sweep(context.Background(), coord.Loopback(), ps, sweeps, 0); err != nil {
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
// Loopback give a coordinator with N nodes. Sweep k is reported at hour
// k+1, so every device was last seen at the hour of its last check, and
// a device the coordinator left alone ran every sweep. One seed gives byte-identical fleet JSON however the
// device goroutines interleave.
func TestSweepReportsEveryDeviceDeterministically(t *testing.T) {
	const n, sweeps = 4, 3
	ps, f, first := fleetJSON(t, n, 2021, 5, sweeps)
	if f.Total != n || len(f.Ranked) != n {
		t.Fatalf("fleet %+v, want %d nodes", f, n)
	}
	checks := map[string]int{}
	for _, p := range ps {
		checks[p.Node()] = p.Checks()
	}
	left := 0
	for _, s := range f.Ranked {
		c := checks[s.ID]
		if s.LastSeenHours != float64(c) {
			t.Errorf("%s last seen at hour %v after %d checks", s.ID, s.LastSeenHours, c)
		}
		if s.Command == "" {
			left++
			if c != sweeps {
				t.Errorf("%s has no command but was checked %d times, want %d", s.ID, c, sweeps)
			}
		}
	}
	if left == 0 {
		t.Fatal("every device commanded; the test needs one the coordinator leaves alone")
	}
	_, _, again := fleetJSON(t, n, 2021, 5, sweeps)
	if !bytes.Equal(first, again) {
		t.Fatalf("same seed, different fleet JSON:\n%s\n%s", first, again)
	}
}

// TestSweepStopsCommandedDevices: a flooded device is drained or
// retired after its first report and is never checked again.
func TestSweepStopsCommandedDevices(t *testing.T) {
	const n = 2
	ps, f, _ := fleetJSON(t, n, 11, 0.002, 3)
	if f.Draining+f.Retired != n {
		t.Fatalf("fleet %+v: want every flooded device drained or retired", f)
	}
	for _, p := range ps {
		if p.Checks() != 1 {
			t.Errorf("%s checked %d times after its command, want 1", p.Node(), p.Checks())
		}
	}
	for _, s := range f.Ranked {
		if s.Health == "ok" || s.Command == "" {
			t.Errorf("flooded %s ranked health %q command %q", s.ID, s.Health, s.Command)
		}
	}
}
