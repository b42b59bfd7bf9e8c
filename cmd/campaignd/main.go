// Command campaignd is the distributed campaign engine's process
// surface: a coordinator that shards the Monte-Carlo ECC evaluation
// into (scheme, pattern) cells and serves them over HTTP, and a worker
// mode that joins a remote coordinator and executes cells with the
// batch-decoder fast path.
//
// Coordinator (with two embedded workers and a resumable checkpoint):
//
//	campaignd -listen 127.0.0.1:8335 -workers 2 -samples 400000 -checkpoint campaign.ckpt.json
//
// Extra workers joining from other terminals or machines:
//
//	campaignd -join http://127.0.0.1:8335 -workers 2
//
// The coordinator mode is cluster.Local: it exposes /v1/lease,
// /v1/complete, /v1/status, /metrics and /healthz. SIGINT/SIGTERM drains
// cleanly; a coordinator restarted with -resume skips every checkpointed
// cell. Cell-level determinism makes the merged result bit-identical to
// a single sequential process with the same seed and sample counts, so
// stdout matches `ecceval` with the same -seed and -samples.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"sync"
	"time"

	"hbm2ecc/internal/campaign"
	"hbm2ecc/internal/cluster"
	"hbm2ecc/internal/core"
	"hbm2ecc/internal/evalmc"
	"hbm2ecc/internal/httpx"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:8335", "coordinator listen address")
	join := flag.String("join", "", "join this coordinator URL as a worker process instead of coordinating")
	workers := flag.Int("workers", 0, "embedded workers (coordinator mode; >=1 in -join mode)")
	seed := flag.Int64("seed", 2021, "campaign seed")
	samples := flag.Int("samples", 400_000, "Monte-Carlo samples per sampled pattern class")
	withDSC := flag.Bool("dsc", false, "include the rejected (36,32) DSC organization")
	checkpoint := flag.String("checkpoint", "", "snapshot completed cells to this envelope file (atomic write)")
	resume := flag.String("resume", "", "resume from this envelope file (spec must match the flags)")
	leaseTTL := flag.Duration("lease-ttl", 2*time.Minute, "cell lease TTL before re-queue")
	flag.Parse()

	ctx, stop := httpx.SignalContext()
	defer stop()

	if *join != "" {
		if err := runWorkers(ctx, *join, *workers); err != nil {
			log.Fatal(err)
		}
		return
	}
	if err := runCoordinator(ctx, *listen, *workers, *seed, *samples, *withDSC, *checkpoint, *resume, *leaseTTL); err != nil {
		log.Fatal(err)
	}
}

// runWorkers joins a remote coordinator with n worker loops (>=1).
func runWorkers(ctx context.Context, baseURL string, n int) error {
	if n < 1 {
		n = 1
	}
	host, _ := os.Hostname()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		w, err := cluster.NewWorker(cluster.WorkerOptions{
			ID:      fmt.Sprintf("%s-%d-%d", host, os.Getpid(), i),
			BaseURL: baseURL,
		})
		if err != nil {
			return err
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := w.Run(ctx)
			switch {
			case err == nil:
				log.Printf("worker %s: campaign complete (%d cells, %d trials)", w.ID(), w.Completed(), w.Trials())
			case errors.Is(err, context.Canceled):
				log.Printf("worker %s: interrupted", w.ID())
			default:
				log.Printf("worker %s: %v", w.ID(), err)
				errs[i] = err
			}
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func runCoordinator(ctx context.Context, listen string, workers int, seed int64, samples int, withDSC bool, checkpoint, resume string, leaseTTL time.Duration) error {
	names := core.Table2Names()
	if withDSC {
		names = append(names, "DSC")
	}
	spec := cluster.Spec{
		Schemes:      names,
		Seed:         seed,
		Samples3b:    samples,
		SamplesBeat:  samples,
		SamplesEntry: samples,
		Shards:       1,
	}

	// The checkpoint file is a cluster envelope: the completed cells
	// plus the spec they are valid for.
	cli, err := campaign.OpenCLI(spec.Options().Echo(), checkpoint, resume,
		func(path string) (*evalmc.Checkpoint, error) {
			env, err := cluster.LoadEnvelope(path)
			if err != nil {
				return nil, err
			}
			if !env.Spec.Equal(&spec) {
				return nil, fmt.Errorf("envelope %s was taken under a different campaign spec", path)
			}
			return env.Completed, nil
		},
		func(c *evalmc.Checkpoint, path string) error { return cluster.NewEnvelope(spec, c).Save(path) })
	if err != nil {
		return err
	}
	l, err := cluster.StartLocal(ctx, listen, cluster.CoordinatorOptions{
		Spec: spec, LeaseTTL: leaseTTL, Resume: cli.Resume, Progress: cli.Progress,
	}, workers, cluster.WorkerOptions{ID: "embedded"})
	if err != nil {
		return err
	}
	coord := l.Coordinator
	log.Printf("coordinating %d cells on %s (%d embedded workers)", spec.NumCells(), l.BaseURL(), workers)

	// Progress heartbeat for the operator's terminal; it stops with the
	// campaign, which is also when Wait returns.
	beatDone := make(chan struct{})
	go func() {
		defer close(beatDone)
		ticker := time.NewTicker(5 * time.Second)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-coord.Done():
				return
			case <-ticker.C:
				st := coord.Status()
				log.Printf("progress: %d/%d cells done, %d leased, %d pending, %d workers",
					st.Done, st.Total, st.Leased, st.Pending, len(st.Workers))
			}
		}
	}()

	results, err := l.Wait(ctx)
	<-beatDone
	if ctx.Err() != nil {
		cli.Interrupted()
		return nil
	}
	if err != nil {
		return err
	}
	st := coord.Status()
	for _, w := range st.Workers {
		log.Printf("worker %s: %d cells, %d trials, %.0f trials/sec (%d failures)",
			w.ID, w.Completed, w.Trials, w.TrialsPerSec, w.Failures)
	}
	log.Printf("campaign done: %d cells, %d re-queues, %d conflicts, %d evictions",
		st.Total, st.Requeues, st.Conflicts, st.Evictions)
	return evalmc.WriteReport(os.Stdout, results)
}
