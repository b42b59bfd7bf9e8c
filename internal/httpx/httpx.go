// Package httpx centralizes the hardening every HTTP server in the
// repository applies — the fleet health plane's daemons, fleetd and
// obsd — so no server is assembled ad hoc:
//
//   - servers get conservative read/write/idle timeouts and a graceful
//     drain on context cancellation (SIGINT-clean by construction);
//   - request bodies are bounded before any handler decodes them, and
//     frames are decoded strictly (unknown fields and trailing data
//     refused).
//
// The repository ships no HTTP client: every simulated agent reports
// in-process, so the servers only ingest frames from external agents
// and answer reads.
//
// It is stdlib-only, like the rest of the repository's infrastructure
// (the only in-repo dependency is the obs registry, itself stdlib-only,
// for the uniform per-daemon identity metrics).
package httpx

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"hbm2ecc/internal/obs"
)

// DefaultMaxBody bounds request bodies (1 MiB) unless the caller picks
// a different limit. Every protocol in this repository fits
// comfortably.
const DefaultMaxBody = 1 << 20

// shutdownTimeout is how long a daemon waits for in-flight requests to
// drain after its context is cancelled.
const shutdownTimeout = 10 * time.Second

// newServer returns an *http.Server with the repository's hardened
// defaults — header/read/write/idle timeouts sized for small JSON APIs —
// and its request bodies bounded by limit (limit <= 0 leaves bodies
// unbounded: only for handlers that never read them).
func newServer(h http.Handler, limit int64) *http.Server {
	if limit > 0 {
		h = maxBytes(h, limit)
	}
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// maxBytes bounds every request body seen by next: reads past limit
// fail, and handlers decoding JSON surface the standard
// *http.MaxBytesError.
func maxBytes(next http.Handler, limit int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, limit)
		}
		next.ServeHTTP(w, r)
	})
}

// serve runs srv on ln until ctx is cancelled, then shuts it down
// gracefully, waiting up to drain for in-flight requests. It returns
// nil on a clean shutdown and the serve error otherwise.
func serve(ctx context.Context, srv *http.Server, ln net.Listener, drain time.Duration) error {
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
		sctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			return fmt.Errorf("httpx: shutdown: %w", err)
		}
		<-errc // always http.ErrServerClosed after Shutdown
		return nil
	}
}

// SignalContext returns a context cancelled on SIGINT/SIGTERM — the
// shared first line of every daemon main (fleetd, obsd).
func SignalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// Daemon is the shared HTTP daemon bootstrap: a hardened server bound
// to a listener whose address is known immediately (so ":0" works for
// tests and smoke scripts), serving in the background until its context
// is cancelled, then draining gracefully. It consolidates the
// listen/serve/drain scaffolding every daemon under cmd/ would otherwise
// assemble by hand.
type Daemon struct {
	srv  *http.Server
	ln   net.Listener
	done chan error
}

// StartDaemon listens on addr and serves h (wrapped with maxBytes when
// limit > 0) until ctx is cancelled. The returned Daemon is already
// accepting connections; call Wait to block for the graceful drain.
//
// component names the daemon for the standard identity series every
// daemon exposes uniformly on its /metrics endpoint (via the obs
// Default registry): <component>_build_info{go_version,module} with
// constant value 1, and <component>_uptime_seconds, refreshed once a
// second until ctx is cancelled. An empty component skips both.
func StartDaemon(ctx context.Context, component, addr string, h http.Handler, limit int64) (*Daemon, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	d := &Daemon{
		srv:  newServer(h, limit),
		ln:   ln,
		done: make(chan error, 1),
	}
	registerDaemonMetrics(ctx, component)
	go func() { d.done <- serve(ctx, d.srv, ln, shutdownTimeout) }()
	return d, nil
}

// registerDaemonMetrics publishes the per-daemon identity series.
// Registration is idempotent (obs returns the existing family), so
// restarting a daemon in-process — tests do — is safe.
func registerDaemonMetrics(ctx context.Context, component string) {
	if component == "" {
		return
	}
	obs.NewGauge(component+"_build_info",
		"Build metadata for the "+component+" daemon (value is constant 1).",
		"go_version", "module").
		With(runtime.Version(), "hbm2ecc").Set(1)
	up := obs.NewGauge(component+"_uptime_seconds",
		"Seconds since the "+component+" daemon started.").With()
	up.Set(0)
	start := time.Now()
	go func() {
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				up.Set(time.Since(start).Seconds())
			}
		}
	}()
}

// Addr returns the daemon's bound address (resolves ":0" listens).
func (d *Daemon) Addr() net.Addr { return d.ln.Addr() }

// URL returns the daemon's base URL ("http://host:port").
func (d *Daemon) URL() string { return "http://" + d.ln.Addr().String() }

// Wait blocks until the serve loop has exited (after the start context
// is cancelled and in-flight requests drained). It returns nil on a
// clean shutdown and the serve error otherwise, and is safe to call
// exactly once.
func (d *Daemon) Wait() error { return <-d.done }

// WriteJSON writes v as a JSON response with the given status code.
// Encoding errors past the header are unrecoverable and dropped.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// Error writes a JSON error body with the given status code.
func Error(w http.ResponseWriter, code int, msg string) {
	WriteJSON(w, code, map[string]string{"error": msg})
}

// ReadBody reads a request body to completion under limit (<=0 selects
// DefaultMaxBody). It composes with maxBytes: whichever bound is
// tighter wins.
func ReadBody(r *http.Request, limit int64) ([]byte, error) {
	if limit <= 0 {
		limit = DefaultMaxBody
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, limit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(body)) > limit {
		return nil, fmt.Errorf("httpx: request body exceeds %d bytes", limit)
	}
	return body, nil
}

// DecodeStrict unmarshals exactly one JSON document of at most max bytes
// into v, rejecting unknown fields and trailing data. Errors start with
// prefix (the protocol's package name), so each wire protocol keeps its
// own error strings over one shared front door.
func DecodeStrict(prefix string, data []byte, v any, max int) error {
	if len(data) > max {
		return fmt.Errorf("%s: frame of %d bytes exceeds %d", prefix, len(data), max)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%s: decoding frame: %w", prefix, err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return errors.New(prefix + ": trailing data after frame")
	}
	return nil
}
