package fieldsim

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"hbm2ecc/internal/chaos/netchaos"
	"hbm2ecc/internal/fleet"
)

// This file locks the fleet plane's partition tolerance end to end:
// the same fleet simulation is run once against an in-memory
// coordinator over loopback (the uninterrupted baseline) and once over
// real HTTP against a coordinator whose endpoint answers 503 for one
// simulated hour mid-run, while 30% of the fleet's quiet nodes ride out
// a network partition behind netchaos transports. The two runs
// must converge to identical results: the outbox buffers and redelivers
// in order, and the coordinator's sequence dedup absorbs redelivery.

// coordState flattens everything externally observable about a
// coordinator: the full ranked fleet snapshot plus every node's
// recent-event ring. The fleet-wide event ring is deliberately
// excluded — it records global arrival order, which buffering
// legitimately permutes across nodes.
func coordState(c *fleet.Coordinator, nodes int) any {
	perNode := make(map[string]fleet.EventsResponse, nodes)
	for i := 0; i < nodes; i++ {
		id := fmt.Sprintf("node-%05d", i)
		perNode[id] = c.Events(id, 0, fleet.MaxTopNodes)
	}
	return struct {
		Fleet   fleet.FleetResponse
		PerNode map[string]fleet.EventsResponse
	}{c.Fleet(fleet.MaxTopNodes), perNode}
}

func TestChaosOutageAndPartitionConvergesToBaseline(t *testing.T) {
	cfg := smallFleet()

	// Baseline: uninterrupted loopback run against a memory coordinator.
	base := fleet.NewCoordinator(fleet.CoordinatorOptions{})
	resBase, err := RunFleet(context.Background(), cfg, base.Loopback())
	if err != nil {
		t.Fatal(err)
	}

	// Chaos run: a memory coordinator behind a swappable HTTP handler.
	coord := fleet.NewCoordinator(fleet.CoordinatorOptions{})
	var handler atomic.Pointer[http.Handler]
	setHandler := func(h http.Handler) { handler.Store(&h) }
	setHandler(coord.Handler())
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*handler.Load()).ServeHTTP(w, r)
	}))
	defer srv.Close()
	var downHits atomic.Int64
	down := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		downHits.Add(1)
		http.Error(w, "coordinator unavailable", http.StatusServiceUnavailable)
	})

	// Partition 30% of the fleet, drawn from the mult-1 population
	// (indices 0..53 under the rate-class mix at 60 nodes) and — for
	// this seed — earning no remediation command while their frames are
	// in flight. That restriction is load-bearing: a command applied
	// late changes when the node leaves service, which changes the
	// simulation trajectory itself — divergence by construction, not a
	// reporting-layer defect. The buffered-report path only promises
	// that what was reported converges, not that decisions delayed past
	// their moment have no cost.
	parts := make(map[int]*netchaos.Transport)
	for _, i := range []int{0, 2, 3, 7, 10, 11, 15, 17, 19, 21, 22, 28, 29, 31, 32, 36, 40, 45} {
		parts[i] = &netchaos.Transport{}
	}
	if got, want := len(parts), (cfg.Nodes*30+99)/100; got != want {
		t.Fatalf("partition set is %d nodes, want %d (30%%)", got, want)
	}

	// The partition backlog clears by hour 44 (last failed probe before
	// the hour-36 heal plus the 8h backoff cap); the outage window sits
	// in a command-quiet stretch for this seed (no command issued
	// fleet-wide in [45, 50)), so the one dead tick's backlog clears
	// before any command could be delayed.
	const (
		partStart, partEnd = 18.0, 36.0
		downAt, upAt       = 46.0, 47.0
	)
	parted, wentDown, cameUp := false, false, false
	cfg.ReporterFor = func(i int, id string) fleet.Reporter {
		cl := fleet.NewClient(srv.URL, 10*time.Second)
		if tr, ok := parts[i]; ok {
			cl.WithTransport(tr)
		}
		return cl
	}
	cfg.OnTick = func(now float64) {
		if !parted && now >= partStart && now < partEnd {
			parted = true
			for _, tr := range parts {
				tr.SetPartitioned(true)
			}
		}
		if parted && now >= partEnd {
			parted = false
			for _, tr := range parts {
				tr.SetPartitioned(false)
			}
		}
		if !wentDown && now >= downAt {
			// Every node's report in the outage gets a retryable 503.
			wentDown = true
			setHandler(down)
		}
		if wentDown && !cameUp && now >= upAt {
			cameUp = true
			setHandler(coord.Handler())
		}
	}

	resChaos, err := RunFleet(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !cameUp {
		t.Fatal("outage schedule never fired")
	}

	// The chaos was real: partitioned transports refused requests, the
	// outboxes buffered and retried, and nothing was shed or poisoned.
	var partDrops int64
	for _, tr := range parts {
		partDrops += tr.Refused()
	}
	if partDrops == 0 {
		t.Fatal("partition never blocked a request")
	}
	if downHits.Load() == 0 {
		t.Fatal("outage never answered a request")
	}
	ob := resChaos.Outbox
	if ob.Failures == 0 {
		t.Fatal("outboxes never saw a failed send despite partition + outage")
	}
	if ob.Drops != 0 || ob.Rejected != 0 {
		t.Fatalf("outboxes shed or poisoned frames: %+v", ob)
	}
	if ob.Sent != ob.Enqueued {
		t.Fatalf("outboxes left frames undelivered: %+v", ob)
	}
	if ob.Enqueued != resBase.Outbox.Enqueued {
		t.Fatalf("chaos run generated %d frames, baseline %d — trajectories diverged",
			ob.Enqueued, resBase.Outbox.Enqueued)
	}

	// The simulation outcome is identical: same decode outcomes, same
	// policy actions at the same times, same scorecard. Only the outbox
	// counters (which measure the chaos itself) may differ.
	resBase.Outbox, resChaos.Outbox = fleet.OutboxStats{}, fleet.OutboxStats{}
	if !reflect.DeepEqual(resChaos, resBase) {
		t.Errorf("chaos run result diverged from baseline:\n got %+v\nwant %+v", resChaos, resBase)
	}

	// The chaos coordinator's fleet picture matches the coordinator
	// that never went down and never lost a packet.
	if got, want := coordState(coord, cfg.Nodes), coordState(base, cfg.Nodes); !reflect.DeepEqual(got, want) {
		t.Errorf("chaos coordinator state diverged from baseline:\n got %+v\nwant %+v", got, want)
	}
}
