// Command obsd watches a simulated HBM2 GPU fleet through the fleet
// health plane. Every device sits in its own accelerated soft-error
// beamline; obsd checks each one with the paper's DRAM microbenchmark
// (a fieldsim.Probe), feeds what the check classifies — corrected and
// detected soft errors, weak-cell damage — into that device's
// fleet.Agent, and reports the agent's Xid events to an in-process
// fleet coordinator, whose endpoints it serves:
//
//	GET  /v1/fleet        — ranked devices + status counts (?top=N)
//	GET  /v1/fleet/events — recent Xid events (?node=&xid=&limit=)
//	GET  /metrics         — Prometheus text (fleet_* families)
//	GET  /healthz         — liveness + fleet counts
//
// Each device runs on its own goroutine, one sweep per -interval, and
// sweep k is simulated hour k+1 on the fleet plane's clock. A device
// leaves the rotation once the coordinator answers one of its reports
// with drain or retire; one that stops reporting for the coordinator's
// 12-hour lease is marked offline.
//
// Run `obsd -once` for one sweep of every device, printed as the
// coordinator's /v1/fleet JSON (no server). SIGINT/SIGTERM stops the
// sweeps, waits for in-flight checks, and then shuts the HTTP server
// down.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"sync"
	"time"

	"hbm2ecc/internal/fieldsim"
	"hbm2ecc/internal/fleet"
	"hbm2ecc/internal/httpx"
)

func main() {
	addr := flag.String("addr", ":8080", "HTTP listen address")
	devices := flag.Int("devices", 4, "simulated fleet size")
	interval := flag.Duration("interval", 10*time.Second, "health-check sweep interval (one sweep = one simulated hour)")
	seed := flag.Int64("seed", 2021, "random seed for the fleet's fault streams")
	runs := flag.Int("runs", 1, "microbenchmark runs per device per check")
	mtte := flag.Float64("mtte", 5, "per-device mean time to soft-error event, seconds")
	once := flag.Bool("once", false, "run one sweep, print the ranked fleet JSON, exit")
	flag.Parse()
	switch {
	case *devices < 1:
		usageError("-devices must be at least 1, got %d", *devices)
	case *runs < 1:
		usageError("-runs must be at least 1, got %d", *runs)
	case *mtte <= 0:
		usageError("-mtte must be positive, got %g", *mtte)
	}

	probes := make([]*fieldsim.Probe, *devices)
	for i := range probes {
		probes[i] = fieldsim.NewProbe(i, *seed, *mtte, *runs)
	}
	coord := fleet.NewCoordinator(fleet.CoordinatorOptions{})

	if *once {
		if err := sweep(context.Background(), coord.Loopback(), probes, 1, 0); err != nil {
			log.Fatal(err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(coord.Fleet(*devices)); err != nil {
			log.Fatal(err)
		}
		return
	}

	ctx, stop := httpx.SignalContext()
	defer stop()

	srv, err := httpx.StartDaemon(ctx, "obsd", *addr, coord.Handler(), fleet.MaxFrame)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("obsd: %d simulated devices, one sweep (one simulated hour) every %s, serving on %s",
		*devices, *interval, srv.Addr())

	if err := sweep(ctx, coord.Loopback(), probes, 0, *interval); err != nil {
		log.Printf("obsd: %v", err)
	}
	<-ctx.Done()
	log.Print("obsd: signal received, draining")
	if err := srv.Wait(); err != nil {
		log.Fatal(err)
	}
	log.Print("obsd: shut down cleanly")
}

// sweep runs every probe's loop on its own goroutine and waits for all
// of them. Each loop does sweeps sweeps (0: until ctx ends), interval
// apart, and ends early once the coordinator answers drain or retire.
func sweep(ctx context.Context, rep fleet.Reporter, probes []*fieldsim.Probe, sweeps int, interval time.Duration) error {
	errs := make([]error, len(probes))
	var wg sync.WaitGroup
	for i, p := range probes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = watch(ctx, rep, p, sweeps, interval)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// watch is one device's loop. Sweep k checks the device into its agent
// and reports at simulated hour k+1; the rows named by the Xid 63
// events in a report are swapped out on the device as it is sent.
func watch(ctx context.Context, rep fleet.Reporter, p *fieldsim.Probe, sweeps int, interval time.Duration) error {
	a := fleet.NewAgent(p.Node(), fleet.AgentOptions{})
	var seq uint64
	for k := 0; sweeps == 0 || k < sweeps; k++ {
		if k > 0 && interval > 0 {
			select {
			case <-ctx.Done():
				return nil
			case <-time.After(interval):
			}
		}
		if ctx.Err() != nil {
			return nil
		}
		at := float64(k + 1)
		p.Check(a, at)
		command := ""
		err := fieldsim.Frames(a, &seq, at, func(req fleet.ReportRequest) error {
			p.Retire(req.Events)
			resp, err := rep.Report(ctx, req)
			command = resp.Command
			return err
		})
		if err != nil {
			return err
		}
		if command == fleet.CommandDrain || command == fleet.CommandRetire {
			return nil
		}
	}
	return nil
}

// usageError reports an out-of-range flag and exits 2, before any
// listener opens.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "obsd: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}
