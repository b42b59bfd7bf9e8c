// Command fleetd is the fleet health control plane: the coordinator
// side of the gpud-style split in internal/fleet, fed by simulated
// node agents from internal/fieldsim. It ingests Xid-style event
// reports, tracks liveness through simulated-time leases, ranks nodes
// by predicted failure, and issues drain/retire commands — then
// reports the policy-quality ledger (SDCs avoided vs capacity lost) the
// simulation ground truth enables.
//
//	fleetd -addr 127.0.0.1:8455 -nodes 1000 -hours 720 -accel 10000
//	fleetd -once -nodes 200 -hours 240   # run the sim, print quality, exit
//
// Endpoints:
//
//	POST /v1/report       — external agent report ingest
//	GET  /v1/fleet        — ranked nodes + status counts (?top=N)
//	GET  /v1/fleet/events — recent events (?node=&xid=&limit=)
//	GET  /metrics         — Prometheus text (fleet_* families)
//	GET  /healthz         — liveness + fleet counts
//
// The embedded simulation's agents report in-process through the
// coordinator's Loopback; the HTTP surface serves reads while it runs
// and ingests frames from external agents, which -nodes 0 serves alone.
// Both paths validate every frame the same way. The fleet picture
// lives in memory only: a restarted fleetd starts empty and agents
// repopulate it on their next report.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"hbm2ecc/internal/core"
	"hbm2ecc/internal/fieldsim"
	"hbm2ecc/internal/fleet"
	"hbm2ecc/internal/httpx"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8455", "HTTP listen address (host:0 picks a free port, printed on startup)")
	nodes := flag.Int("nodes", 1000, "simulated fleet size (0 serves an empty coordinator for external agents)")
	hours := flag.Float64("hours", 720, "simulated deployment, hours")
	accel := flag.Float64("accel", 10_000, "soft-error acceleration factor (crash rate is never accelerated)")
	schemeName := flag.String("scheme", "NI:SEC-DED", "per-node ECC scheme (core.SchemeByName label)")
	seed := flag.Int64("seed", 2021, "simulation seed")
	dueBudget := flag.Int("due-budget", 32, "agent DUE budget per rolling window before it recommends draining")
	lease := flag.Float64("lease", 12, "coordinator liveness lease, simulated hours")
	once := flag.Bool("once", false, "run the simulation, print the result JSON, exit")
	flag.Parse()
	switch {
	case *nodes < 0:
		usageError("-nodes must be at least 0, got %d", *nodes)
	case *nodes == 0 && *once:
		usageError("-once needs -nodes of at least 1; -nodes 0 only serves an empty coordinator")
	case *nodes > 0 && *hours <= 0:
		usageError("-hours must be positive, got %g", *hours)
	case *nodes > 0 && *accel <= 0:
		usageError("-accel must be positive, got %g", *accel)
	}

	scheme, err := core.SchemeByName(*schemeName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetd:", err)
		os.Exit(1)
	}

	coord := fleet.NewCoordinator(fleet.CoordinatorOptions{
		LeaseHours: *lease,
		MaxNodes:   *nodes + 1024,
	})

	ctx, stop := httpx.SignalContext()
	defer stop()

	d, err := httpx.StartDaemon(ctx, "fleetd", *addr, coord.Handler(), fleet.MaxFrame)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetd:", err)
		os.Exit(1)
	}
	log.Printf("fleetd: coordinator for %d simulated nodes on %s (scheme=%s hours=%.0f accel=%.0fx)",
		*nodes, d.URL(), scheme.Name(), *hours, *accel)

	simDone := make(chan struct{})
	var res fieldsim.FleetResult
	var simErr error
	go func() {
		defer close(simDone)
		if *nodes <= 0 {
			return
		}
		cfg := fieldsim.FleetConfig{
			Scheme: scheme,
			Nodes:  *nodes,
			Hours:  *hours,
			Accel:  *accel,
			Seed:   *seed,
		}
		cfg.Agent.DUEBudget = *dueBudget
		res, simErr = fieldsim.RunFleet(ctx, cfg, coord.Loopback())
		if simErr != nil {
			if ctx.Err() != nil {
				return // interrupted mid-simulation; not an error
			}
			log.Printf("fleetd: simulation failed: %v", simErr)
			return
		}
		log.Printf("fleetd: simulated %d nodes x %.0fh: %d raw events (%d DCE / %d DUE / %d SDC), "+
			"%d reports, %d crashes (%d silent)",
			res.Nodes, res.Hours, res.RawEvents, res.DCE, res.DUE, res.SDC,
			res.Reports, res.Crashes, res.SilentCrashes)
		q := res.Quality
		log.Printf("fleetd: policy: avoided %d/%d SDCs (%.1f%%) for %.2f%% capacity (%d drains, %d retires)",
			q.SDCAvoided, q.SDCTotal, 100*q.AvoidedFrac, 100*q.CapacityLostFrac, q.Drained, q.Retired)
	}()

	if *once {
		<-simDone
		stop()
		_ = d.Wait()
		if simErr != nil {
			os.Exit(1)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		_ = enc.Encode(res)
		return
	}

	<-ctx.Done()
	log.Print("fleetd: signal received, draining")
	if err := d.Wait(); err != nil {
		log.Printf("fleetd: %v", err)
	}
	<-simDone
	log.Print("fleetd: shut down cleanly")
}

// usageError reports an out-of-range flag and exits 2, before any
// listener opens.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "fleetd: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}
