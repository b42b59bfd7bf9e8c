package cluster

import (
	"context"
	"reflect"
	"testing"
	"time"

	"hbm2ecc/internal/evalmc"
)

// TestCoordinatorOnlyLocal is the `campaignd -workers 0` + `-join`
// shape: a Local with no embedded workers makes progress only through
// an external worker joining via BaseURL, and still merges to the
// sequential result.
func TestCoordinatorOnlyLocal(t *testing.T) {
	spec := testSpec()
	want := evalmc.EvaluateAll(schemesFor(t, spec), spec.Options())

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	l, err := StartLocal(ctx, "127.0.0.1:0", CoordinatorOptions{Spec: spec}, 0, WorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Workers) != 0 {
		t.Fatalf("%d embedded workers, want 0", len(l.Workers))
	}
	w, err := NewWorker(WorkerOptions{ID: "joiner", BaseURL: l.BaseURL(), PollMax: 25 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	werr := make(chan error, 1)
	go func() { werr <- w.Run(ctx) }()

	got, err := l.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-werr; err != nil {
		t.Fatalf("joined worker: %v", err)
	}
	if w.Completed() != spec.NumCells() {
		t.Fatalf("joined worker completed %d of %d cells", w.Completed(), spec.NumCells())
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("coordinator-only merge differs from sequential evaluation:\n got %+v\nwant %+v", got, want)
	}
}
