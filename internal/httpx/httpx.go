// Package httpx centralizes the hardening every HTTP surface in the
// repository applies — the fleet health plane and the cluster campaign
// protocol alike — so no server or client is assembled ad hoc:
//
//   - servers get conservative read/write/idle timeouts and a graceful
//     drain on context cancellation (SIGINT-clean by construction);
//   - request bodies are bounded before any handler decodes them;
//   - clients get an overall request timeout and bounded response
//     reading, so a wedged or malicious peer cannot park a goroutine or
//     balloon memory.
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

// DefaultMaxBody bounds request and response bodies (1 MiB) unless the
// caller picks a different limit. Every protocol in this repository
// fits comfortably: the largest frame is a campaign checkpoint envelope
// at a few tens of KiB.
const DefaultMaxBody = 1 << 20

// DefaultShutdownTimeout is how long Serve waits for in-flight requests
// to drain after its context is cancelled.
const DefaultShutdownTimeout = 10 * time.Second

// NewServerLimit returns an *http.Server with the repository's hardened
// defaults — header/read/write/idle timeouts sized for small JSON APIs —
// and its request bodies bounded by limit (limit <= 0 leaves bodies
// unbounded: only for handlers that never read them).
func NewServerLimit(addr string, h http.Handler, limit int64) *http.Server {
	if limit > 0 {
		h = MaxBytes(h, limit)
	}
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// MaxBytes bounds every request body seen by next: reads past limit
// fail, and handlers decoding JSON surface the standard
// *http.MaxBytesError.
func MaxBytes(next http.Handler, limit int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, limit)
		}
		next.ServeHTTP(w, r)
	})
}

// Serve runs srv on ln until ctx is cancelled, then shuts it down
// gracefully, waiting up to shutdownTimeout (<=0 selects the default)
// for in-flight requests. It returns nil on a clean shutdown and the
// serve error otherwise.
func Serve(ctx context.Context, srv *http.Server, ln net.Listener, shutdownTimeout time.Duration) error {
	if shutdownTimeout <= 0 {
		shutdownTimeout = DefaultShutdownTimeout
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
		sctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			return fmt.Errorf("httpx: shutdown: %w", err)
		}
		<-errc // always http.ErrServerClosed after Shutdown
		return nil
	}
}

// SignalContext returns a context cancelled on SIGINT/SIGTERM — the
// shared first line of every daemon main (campaignd, fleetd, obsd).
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

// StartDaemon listens on addr and serves h (wrapped with MaxBytes when
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
		srv:  NewServerLimit("", h, limit),
		ln:   ln,
		done: make(chan error, 1),
	}
	registerDaemonMetrics(ctx, component)
	go func() { d.done <- Serve(ctx, d.srv, ln, DefaultShutdownTimeout) }()
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
// DefaultMaxBody). It composes with MaxBytes: whichever bound is
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

// Client is a hardened JSON-over-HTTP client: overall per-request
// timeout, bounded response bodies, JSON round-tripping. It sends each
// request once; callers that ride out transient failures (the cluster
// worker, the fleet outbox) retry on their own schedules.
type Client struct {
	// HTTP is the underlying client (its Timeout bounds each request
	// end to end).
	HTTP *http.Client
	// MaxBody bounds response bodies (0 selects DefaultMaxBody).
	MaxBody int64
}

// NewClient builds a Client with the given end-to-end request timeout
// (<=0 selects 30s).
func NewClient(timeout time.Duration) *Client {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	return &Client{HTTP: &http.Client{Timeout: timeout}}
}

func (c *Client) maxBody() int64 {
	if c.MaxBody > 0 {
		return c.MaxBody
	}
	return DefaultMaxBody
}

func (c *Client) do(req *http.Request, out any) error {
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	limit := c.maxBody()
	body, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
	if err != nil {
		return fmt.Errorf("httpx: reading response: %w", err)
	}
	if int64(len(body)) > limit {
		return fmt.Errorf("httpx: response body exceeds %d bytes", limit)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return &StatusError{Code: resp.StatusCode, Body: string(truncate(body, 256))}
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("httpx: decoding response: %w", err)
	}
	return nil
}

// PostJSON POSTs in as JSON to url and decodes the response into out
// (out may be nil to discard the body).
func (c *Client) PostJSON(ctx context.Context, url string, in, out any) error {
	payload, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("httpx: encoding request: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(payload))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.do(req, out)
}

// GetJSON GETs url and decodes the response into out.
func (c *Client) GetJSON(ctx context.Context, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	return c.do(req, out)
}

// StatusError is a non-2xx HTTP response surfaced as an error.
type StatusError struct {
	Code int
	Body string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("httpx: HTTP %d: %s", e.Code, e.Body)
}

func truncate(b []byte, n int) []byte {
	if len(b) > n {
		return b[:n]
	}
	return b
}
