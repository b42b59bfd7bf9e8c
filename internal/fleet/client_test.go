package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hbm2ecc/internal/httpx"
)

// TestClientDoesNotRetryValidationRejections checks that a coordinator's
// validation rejection reaches the caller as a permanent
// *httpx.StatusError after one request: retrying is the outbox's job,
// and the outbox drops permanent rejections.
func TestClientDoesNotRetryValidationRejections(t *testing.T) {
	h := NewCoordinator(CoordinatorOptions{}).Handler()
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()

	c := NewClient(srv.URL, 5*time.Second)
	// Seq 0 fails coordinator-side validation: a permanent 400.
	_, err := c.Report(context.Background(), ReportRequest{NodeID: "node-0", Seq: 0, AtHours: 1, Health: "ok"})
	var se *httpx.StatusError
	if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("err = %v, want 400", err)
	}
	if served.Load() != 1 {
		t.Fatalf("validation rejection retried: %d requests", served.Load())
	}
}

// TestClientRefusesUnknownResponseField: Report decodes the response
// with the strict codec the fuzz target locks, so a frame carrying a
// field the protocol does not define is an error, not a silent ack.
func TestClientRefusesUnknownResponseField(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"version":%d,"accepted":0,"lease_hours":12,"bogus":1}`, ProtocolVersion)
	}))
	defer srv.Close()

	c := NewClient(srv.URL, 5*time.Second)
	_, err := c.Report(context.Background(), ReportRequest{NodeID: "node-0", Seq: 1, AtHours: 1, Health: "ok"})
	if err == nil || !strings.Contains(err.Error(), "unknown field") {
		t.Fatalf("Report = %v, want an unknown-field decode error", err)
	}
}
