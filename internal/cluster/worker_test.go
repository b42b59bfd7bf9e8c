package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestWorkerRetryJitterDiffersByID: the retry jitter is seeded from the
// worker ID, so workers that lose the coordinator together draw
// different delays, while one ID always draws the same schedule.
func TestWorkerRetryJitterDiffersByID(t *testing.T) {
	first := func(id string) time.Duration {
		w, err := NewWorker(WorkerOptions{ID: id, BaseURL: "http://127.0.0.1:1"})
		if err != nil {
			t.Fatal(err)
		}
		return w.retryDelay(1)
	}
	a, b := first("worker-a"), first("worker-b")
	if a == b {
		t.Fatalf("workers a and b both wait %v before their first retry", a)
	}
	if again := first("worker-a"); again != a {
		t.Fatalf("worker-a's first delay %v then %v: not deterministic", a, again)
	}
}

// TestWorkerRefusesUnknownLeaseField: the worker decodes lease
// responses with the strict codec the fuzz targets lock, so a frame
// carrying a field the protocol does not define ends the run at once
// instead of being silently accepted or retried.
func TestWorkerRefusesUnknownLeaseField(t *testing.T) {
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		fmt.Fprintf(w, `{"version":%d,"wait":true,"retry_ms":1,"bogus":1}`, ProtocolVersion)
	}))
	defer srv.Close()

	w, err := NewWorker(WorkerOptions{ID: "strict", BaseURL: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	// A worker that accepted the frame would poll on; the deadline
	// turns that into a failure instead of a hang.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err = w.Run(ctx)
	if err == nil || !strings.Contains(err.Error(), "unknown field") {
		t.Fatalf("Run = %v, want an unknown-field decode error", err)
	}
	if served.Load() != 1 {
		t.Fatalf("malformed lease response requested %d times, want 1", served.Load())
	}
}
