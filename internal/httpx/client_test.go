package httpx

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"hbm2ecc/internal/obs"
)

// TestClientCancelReleasesInFlightRequest locks the client disconnect
// path: cancelling the caller's context aborts an in-flight request
// promptly (surfacing context.Canceled), and the server-side request
// context is cancelled with it.
func TestClientCancelReleasesInFlightRequest(t *testing.T) {
	entered := make(chan struct{}, 1)
	serverSaw := make(chan struct{}, 1)
	base, _ := startServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-r.Context().Done() // the client disconnect must propagate here
		serverSaw <- struct{}{}
	}), 0)

	c := NewClient(30 * time.Second)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- c.GetJSON(ctx, base+"/", nil) }()

	<-entered
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled request returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled request still in flight after 5s")
	}
	select {
	case <-serverSaw:
	case <-time.After(5 * time.Second):
		t.Fatal("server-side request context never cancelled")
	}
}

// TestClientDeadlineBoundsSlowServer: a context deadline bounds the wait
// on a server that never answers.
func TestClientDeadlineBoundsSlowServer(t *testing.T) {
	base, _ := startServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Drain the body first: the server only watches for a client
		// disconnect (which cancels r.Context()) once the body is read.
		_, _ = io.ReadAll(r.Body)
		<-r.Context().Done()
	}), 0)
	c := NewClient(30 * time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Post(ctx, base+"/", map[string]int{"x": 1})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("deadline honored after %s", el)
	}
}

// TestClientStopsReadingStreamingOverflow: a response streamed past
// MaxBody fails with the overflow error after reading at most
// MaxBody+1 bytes — the client never buffers an attacker-sized body.
func TestClientStopsReadingStreamingOverflow(t *testing.T) {
	const chunk = 1 << 10
	base, _ := startServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fl, _ := w.(http.Flusher)
		buf := []byte(strings.Repeat("s", chunk))
		for i := 0; i < (1<<20)/chunk; i++ {
			if _, err := w.Write(buf); err != nil {
				return // client hung up — expected
			}
			if fl != nil {
				fl.Flush()
			}
		}
	}), 0)

	c := NewClient(30 * time.Second)
	c.MaxBody = 4 * chunk
	start := time.Now()
	err := c.GetJSON(context.Background(), base+"/", new(any))
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("streaming overflow: err = %v, want body-bound error", err)
	}
	if el := time.Since(start); el > 10*time.Second {
		t.Fatalf("overflow detected only after %s", el)
	}
}

func TestStartDaemonServesAndDrains(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	d, err := StartDaemon(ctx, "testd", "127.0.0.1:0", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]bool{"ok": true})
	}), DefaultMaxBody)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(d.URL(), "http://127.0.0.1:") {
		t.Fatalf("URL = %q", d.URL())
	}

	var out struct {
		OK bool `json:"ok"`
	}
	c := NewClient(5 * time.Second)
	if err := c.GetJSON(context.Background(), d.URL()+"/", &out); err != nil || !out.OK {
		t.Fatalf("daemon request: %v (ok=%v)", err, out.OK)
	}

	// The bootstrap registered the daemon's identity series on the obs
	// Default registry.
	var buf bytes.Buffer
	if err := obs.Default.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.Contains(text, `testd_build_info{go_version="`+runtime.Version()+`",module="hbm2ecc"} 1`) {
		t.Errorf("metrics missing testd_build_info:\n%s", text)
	}
	if !strings.Contains(text, "testd_uptime_seconds") {
		t.Errorf("metrics missing testd_uptime_seconds:\n%s", text)
	}

	cancel()
	if err := d.Wait(); err != nil {
		t.Fatalf("Wait after cancel: %v", err)
	}
	// The listener is released: a fresh daemon can bind the same port.
	ctx2, cancel2 := context.WithCancel(context.Background())
	d2, err := StartDaemon(ctx2, "", d.Addr().String(), http.NotFoundHandler(), 0)
	if err != nil {
		t.Fatalf("rebinding drained daemon's port: %v", err)
	}
	cancel2()
	if err := d2.Wait(); err != nil {
		t.Errorf("second daemon drain: %v", err)
	}
}
