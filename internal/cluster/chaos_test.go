package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"hbm2ecc/internal/chaos/netchaos"
	"hbm2ecc/internal/core"
	"hbm2ecc/internal/errormodel"
	"hbm2ecc/internal/evalmc"
	"hbm2ecc/internal/httpx"
)

// harness serves a coordinator over loopback HTTP and runs workers
// under individual contexts, so chaos tests can kill one worker (or the
// whole coordinator) without taking the rest of the cluster down.
type harness struct {
	coord  *Coordinator
	base   string
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

func startHarness(t *testing.T, copts CoordinatorOptions) *harness {
	t.Helper()
	coord, err := NewCoordinator(copts)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	h := &harness{coord: coord, base: "http://" + ln.Addr().String(), cancel: cancel}
	srv := httpx.NewServerLimit("", coord.Handler(), MaxFrame)
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		_ = httpx.Serve(ctx, srv, ln, time.Second)
	}()
	t.Cleanup(h.stop)
	return h
}

func (h *harness) stop() {
	h.cancel()
	h.wg.Wait()
}

// runWorker runs one worker against the harness coordinator until it
// returns; hook (optional) fires before each cell evaluation.
func (h *harness) runWorker(ctx context.Context, id string, client *httpx.Client, hook func(Cell)) error {
	w, err := NewWorker(WorkerOptions{
		ID:      id,
		BaseURL: h.base,
		Client:  client,
		PollMax: 25 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	w.hookBeforeEvaluate = hook
	return w.Run(ctx)
}

func schemesFor(t *testing.T, spec Spec) []core.Scheme {
	t.Helper()
	out := make([]core.Scheme, 0, len(spec.Schemes))
	for _, n := range spec.Schemes {
		s, err := core.SchemeByName(n)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
	}
	return out
}

// TestDistributedMatchesSequential is the determinism contract: a
// multi-worker campaign over real loopback HTTP merges to exactly the
// result a single sequential process computes.
func TestDistributedMatchesSequential(t *testing.T) {
	spec := testSpec()
	want := evalmc.EvaluateAll(schemesFor(t, spec), spec.Options())

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	got, _, err := RunLocal(ctx, CoordinatorOptions{Spec: spec}, 3,
		WorkerOptions{PollMax: 25 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("distributed merge differs from sequential evaluation:\n got %+v\nwant %+v", got, want)
	}
}

// TestChaosWorkerKillMidCell kills a worker between leasing a cell and
// delivering its result: the lease must expire, re-queue, and the
// surviving worker must finish the campaign with sequential-identical
// results.
func TestChaosWorkerKillMidCell(t *testing.T) {
	spec := testSpec()
	h := startHarness(t, CoordinatorOptions{
		Spec:     spec,
		LeaseTTL: 200 * time.Millisecond,
	})

	victimCtx, kill := context.WithCancel(context.Background())
	var once sync.Once
	victimErr := make(chan error, 1)
	go func() {
		victimErr <- h.runWorker(victimCtx, "victim", nil, func(Cell) {
			once.Do(kill) // simulate a crash holding a live lease
		})
	}()
	if err := <-victimErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("victim exit: %v, want context.Canceled", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	survivorDone := make(chan error, 1)
	go func() { survivorDone <- h.runWorker(ctx, "survivor", nil, nil) }()
	select {
	case err := <-survivorDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-ctx.Done():
		t.Fatal("campaign did not finish after worker kill")
	}

	st := h.coord.Status()
	if st.Requeues < 1 {
		t.Fatalf("no lease was re-queued after the worker kill: %+v", st)
	}
	got, err := h.coord.Results()
	if err != nil {
		t.Fatal(err)
	}
	want := evalmc.EvaluateAll(schemesFor(t, spec), spec.Options())
	if !reflect.DeepEqual(got, want) {
		t.Fatal("results after worker kill differ from sequential evaluation")
	}
}

// TestChaosCoordinatorKillAndResume kills the coordinator mid-campaign
// and restarts it from its checkpoint envelope: completed cells must
// not re-run, and the final merge must match the sequential result.
func TestChaosCoordinatorKillAndResume(t *testing.T) {
	spec := testSpec()
	path := filepath.Join(t.TempDir(), "campaign.ckpt.json")
	ckpt := evalmc.NewCheckpoint(spec.Options())

	phase1Ctx, phase1Kill := context.WithCancel(context.Background())
	defer phase1Kill()
	completed := 0
	h1 := startHarness(t, CoordinatorOptions{
		Spec: spec,
		Progress: func(scheme string, p errormodel.Pattern, r evalmc.PatternResult) {
			ckpt.Store(scheme, p, r)
			if err := NewEnvelope(spec, ckpt).Save(path); err != nil {
				t.Errorf("checkpoint save: %v", err)
			}
			if completed++; completed == 5 {
				phase1Kill() // the "coordinator crash", after 5 of 21 cells
			}
		},
	})
	if err := h1.runWorker(phase1Ctx, "w-phase1", nil, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("phase-1 worker exit: %v, want context.Canceled", err)
	}
	h1.stop()

	env, err := LoadEnvelope(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := env.Completed.Cells(); n < 5 {
		t.Fatalf("checkpoint has %d cells, want >= 5", n)
	}

	h2 := startHarness(t, CoordinatorOptions{
		Spec:   spec,
		Resume: env.Completed.Lookup,
	})
	if st := h2.coord.Status(); st.Done < 5 {
		t.Fatalf("resumed coordinator starts with %d done cells, want >= 5", st.Done)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := h2.runWorker(ctx, "w-phase2", nil, nil); err != nil {
		t.Fatal(err)
	}

	resumed := 0
	for _, a := range h2.coord.Assignments() {
		if a.Worker == "" {
			resumed++
		}
	}
	if resumed < 5 {
		t.Fatalf("%d cells satisfied from checkpoint, want >= 5", resumed)
	}
	got, err := h2.coord.Results()
	if err != nil {
		t.Fatal(err)
	}
	want := evalmc.EvaluateAll(schemesFor(t, spec), spec.Options())
	if !reflect.DeepEqual(got, want) {
		t.Fatal("results after coordinator resume differ from sequential evaluation")
	}
}

// TestChaosFlakyNetwork runs a campaign through a netchaos transport
// that drops every third request deterministically: retries with
// backoff must carry it to the same sequential-identical merge.
func TestChaosFlakyNetwork(t *testing.T) {
	spec := testSpec()
	h := startHarness(t, CoordinatorOptions{
		Spec:     spec,
		LeaseTTL: 500 * time.Millisecond,
	})
	client := httpx.NewClient(10 * time.Second)
	chaos := netchaos.New(netchaos.Plan{DropEvery: 3}, nil)
	client.HTTP.Transport = chaos

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := h.runWorker(ctx, "flaky", client, nil); err != nil {
		t.Fatal(err)
	}
	if st := chaos.Stats(); st.Drops == 0 {
		t.Fatalf("chaos plan injected no drops: %+v", st)
	}
	got, err := h.coord.Results()
	if err != nil {
		t.Fatal(err)
	}
	want := evalmc.EvaluateAll(schemesFor(t, spec), spec.Options())
	if !reflect.DeepEqual(got, want) {
		t.Fatal("results over flaky network differ from sequential evaluation")
	}
}

// TestChaosDuplicatedDeliveries runs a campaign through a transport
// that redelivers a fraction of requests (the lost-ack double-send a
// retrying client produces): the coordinator's idempotent result
// handling must still merge to the sequential answer.
func TestChaosDuplicatedDeliveries(t *testing.T) {
	spec := testSpec()
	h := startHarness(t, CoordinatorOptions{
		Spec:     spec,
		LeaseTTL: 500 * time.Millisecond,
	})
	client := httpx.NewClient(10 * time.Second)
	chaos := netchaos.New(netchaos.Plan{DupProb: 0.3, Seed: 42}, nil)
	client.HTTP.Transport = chaos

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := h.runWorker(ctx, "dup", client, nil); err != nil {
		t.Fatal(err)
	}
	if st := chaos.Stats(); st.Dups == 0 {
		t.Fatalf("chaos plan injected no duplicates: %+v", st)
	}
	got, err := h.coord.Results()
	if err != nil {
		t.Fatal(err)
	}
	want := evalmc.EvaluateAll(schemesFor(t, spec), spec.Options())
	if !reflect.DeepEqual(got, want) {
		t.Fatal("results under duplicated deliveries differ from sequential evaluation")
	}
}

// goldenMirror matches internal/evalmc's golden file layout byte for
// byte, so the distributed engine can be checked against the committed
// single-process golden master.
type goldenMirror struct {
	Seed     int64                 `json:"seed"`
	Samples  int                   `json:"samples"`
	Results  []evalmc.SchemeResult `json:"results"`
	Table2   []evalmc.Table2Row    `json:"table2"`
	Weighted []evalmc.Weighted     `json:"weighted"`
}

// TestDistributedGoldenByteIdentical is the acceptance gate for the
// distributed engine: a 4-worker campaign over the full Table-2 corpus
// — including a worker killed mid-cell and a coordinator killed and
// resumed mid-campaign — must reproduce the committed golden master
// byte for byte.
func TestDistributedGoldenByteIdentical(t *testing.T) {
	const goldenSeed, goldenSamples = 2021, 20_000
	spec := Spec{
		Schemes:      core.Table2Names(),
		Seed:         goldenSeed,
		Samples3b:    goldenSamples,
		SamplesBeat:  goldenSamples,
		SamplesEntry: goldenSamples,
		Shards:       1,
	}
	path := filepath.Join(t.TempDir(), "campaign.ckpt.json")
	ckpt := evalmc.NewCheckpoint(spec.Options())

	// Phase 1: a victim worker dies holding a lease; a survivor makes
	// progress until the re-queue has landed and a third of the grid is
	// done — then the coordinator is killed.
	phase1Ctx, phase1Kill := context.WithCancel(context.Background())
	defer phase1Kill()
	h1 := startHarness(t, CoordinatorOptions{
		Spec:     spec,
		LeaseTTL: 300 * time.Millisecond,
		Progress: func(scheme string, p errormodel.Pattern, r evalmc.PatternResult) {
			ckpt.Store(scheme, p, r)
			if err := NewEnvelope(spec, ckpt).Save(path); err != nil {
				t.Errorf("checkpoint save: %v", err)
			}
		},
	})
	victimCtx, kill := context.WithCancel(phase1Ctx)
	var once sync.Once
	go func() {
		_ = h1.runWorker(victimCtx, "victim", nil, func(Cell) { once.Do(kill) })
	}()
	survivorErr := make(chan error, 1)
	go func() { survivorErr <- h1.runWorker(phase1Ctx, "survivor", nil, nil) }()

	deadline := time.Now().Add(60 * time.Second)
	for {
		st := h1.coord.Status()
		if st.Requeues >= 1 && st.Done >= st.Total/3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("phase 1 never reached kill point: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	phase1Kill() // the coordinator crash
	if err := <-survivorErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("survivor exit: %v, want context.Canceled", err)
	}
	h1.stop()

	// Phase 2: restart from the checkpoint with 4 workers and run the
	// campaign to completion.
	env, err := LoadEnvelope(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	results, coord, err := RunLocal(ctx, CoordinatorOptions{
		Spec:   spec,
		Resume: env.Completed.Lookup,
	}, 4, WorkerOptions{PollMax: 25 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	resumed := 0
	for _, a := range coord.Assignments() {
		if a.Worker == "" {
			resumed++
		}
	}
	if resumed == 0 {
		t.Fatal("no cells were satisfied from the checkpoint")
	}

	got := goldenMirror{Seed: goldenSeed, Samples: goldenSamples,
		Results: results, Table2: evalmc.FormatTable2(results)}
	for _, r := range results {
		got.Weighted = append(got.Weighted, r.Weighted())
	}
	raw, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	raw = append(raw, '\n')
	want, err := os.ReadFile("../evalmc/testdata/golden_eval.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, want) {
		t.Fatal("distributed campaign output differs from the committed golden master")
	}
}
