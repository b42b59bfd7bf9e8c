// Command obsd checks a simulated HBM2 GPU fleet through the fleet
// health plane. Every device sits in its own accelerated soft-error
// beamline; obsd checks each one once with the paper's DRAM
// microbenchmark (a fieldsim.Probe), feeds what the check classifies —
// corrected and detected soft errors, weak-cell damage — into that
// device's fleet.Agent, and reports the agent's Xid events to an
// in-process fleet coordinator at simulated hour 1. It then prints the
// coordinator's ranked fleet (fleet.FleetResponse) as JSON:
//
//	obsd -devices 3 -seed 7
//	obsd -devices 1 -mtte 0.002   # a flooded beam: drain or retire
//
// Each device is checked on its own goroutine; the same flags print
// byte-identical JSON however they interleave.
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

	"hbm2ecc/internal/fieldsim"
	"hbm2ecc/internal/fleet"
)

func main() {
	devices := flag.Int("devices", 4, "simulated fleet size")
	seed := flag.Int64("seed", 2021, "random seed for the fleet's fault streams")
	runs := flag.Int("runs", 1, "microbenchmark runs per device per check")
	mtte := flag.Float64("mtte", 5, "per-device mean time to soft-error event, seconds")
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
	if err := sweep(coord.Loopback(), probes); err != nil {
		log.Fatal(err)
	}
	if err := json.NewEncoder(os.Stdout).Encode(coord.Fleet(*devices)); err != nil {
		log.Fatal(err)
	}
}

// sweep checks every probe on its own goroutine and waits for all of
// them.
func sweep(rep fleet.Reporter, probes []*fieldsim.Probe) error {
	errs := make([]error, len(probes))
	var wg sync.WaitGroup
	for i, p := range probes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = watch(rep, p)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// watch checks one device into its agent and reports what the agent
// saw at simulated hour 1.
func watch(rep fleet.Reporter, p *fieldsim.Probe) error {
	const at = 1
	a := fleet.NewAgent(p.Node(), fleet.AgentOptions{})
	p.Check(a, at)
	_, err := rep.Report(context.Background(), fieldsim.Frame(a, at))
	return err
}

// usageError reports an out-of-range flag and exits 2.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "obsd: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}
