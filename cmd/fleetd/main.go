// Command fleetd runs the fleet health control plane over a simulated
// fleet: the coordinator side of the gpud-style split in internal/fleet,
// fed by simulated node agents from internal/fieldsim. The coordinator
// ingests Xid-style event reports, tracks liveness through
// simulated-time leases, ranks nodes by predicted failure, and issues
// drain/retire commands. fleetd then prints the policy-quality ledger
// (SDCs avoided vs capacity lost) the simulation ground truth enables,
// as FleetResult JSON on stdout, with a two-line summary on stderr.
//
//	fleetd -nodes 200 -hours 240
//	fleetd -nodes 1000 -hours 720 -accel 10000
//
// The agents report in-process through the coordinator's Loopback,
// which checks every frame's events against the Xid taxonomy. The
// fleet picture lives in memory for the one run; the same flags print
// byte-identical JSON.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"hbm2ecc/internal/core"
	"hbm2ecc/internal/fieldsim"
	"hbm2ecc/internal/fleet"
)

func main() {
	nodes := flag.Int("nodes", 1000, "simulated fleet size")
	hours := flag.Float64("hours", 720, "simulated deployment, hours")
	accel := flag.Float64("accel", 10_000, "soft-error acceleration factor (crash rate is never accelerated)")
	schemeName := flag.String("scheme", "NI:SEC-DED", "per-node ECC scheme (core.SchemeByName label)")
	seed := flag.Int64("seed", 2021, "simulation seed")
	dueBudget := flag.Int("due-budget", 32, "agent DUE budget per rolling window before it recommends draining")
	lease := flag.Float64("lease", 12, "coordinator liveness lease, simulated hours")
	flag.Parse()
	switch {
	case *nodes < 1:
		usageError("-nodes must be at least 1, got %d", *nodes)
	case *hours <= 0:
		usageError("-hours must be positive, got %g", *hours)
	case *accel <= 0:
		usageError("-accel must be positive, got %g", *accel)
	}

	scheme, err := core.SchemeByName(*schemeName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetd:", err)
		os.Exit(1)
	}

	coord := fleet.NewCoordinator(fleet.CoordinatorOptions{
		LeaseHours: *lease,
		MaxNodes:   *nodes,
	})
	cfg := fieldsim.FleetConfig{
		Scheme: scheme,
		Nodes:  *nodes,
		Hours:  *hours,
		Accel:  *accel,
		Seed:   *seed,
	}
	cfg.Agent.DUEBudget = *dueBudget
	res, err := fieldsim.RunFleet(context.Background(), cfg, coord.Loopback())
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetd: simulation failed:", err)
		os.Exit(1)
	}
	log.Printf("fleetd: simulated %d nodes x %.0fh: %d raw events (%d DCE / %d DUE / %d SDC), "+
		"%d reports, %d crashes (%d silent)",
		res.Nodes, res.Hours, res.RawEvents, res.DCE, res.DUE, res.SDC,
		res.Reports, res.Crashes, res.SilentCrashes)
	q := res.Quality
	log.Printf("fleetd: policy: avoided %d/%d SDCs (%.1f%%) for %.2f%% capacity (%d drains, %d retires)",
		q.SDCAvoided, q.SDCTotal, 100*q.AvoidedFrac, 100*q.CapacityLostFrac, q.Drained, q.Retired)

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	_ = enc.Encode(res)
}

// usageError reports an out-of-range flag and exits 2.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "fleetd: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}
