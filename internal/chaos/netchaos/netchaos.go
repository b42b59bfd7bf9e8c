// Package netchaos is the repository's network fault layer: an
// http.RoundTripper that models a hard network partition between an
// HTTP client and its server. The fleet plane's chaos test
// (internal/fieldsim) puts one in front of each partitioned agent and
// raises and heals the partition from its simulated-time hooks.
package netchaos

import (
	"fmt"
	"net/http"
	"sync"
)

// Transport forwards requests to http.DefaultTransport unless a
// partition is up. The zero value is a healed transport.
type Transport struct {
	mu          sync.Mutex
	partitioned bool
	refused     int64
}

// SetPartitioned raises or heals a hard partition: while set, every
// request fails before reaching the network.
func (t *Transport) SetPartitioned(on bool) {
	t.mu.Lock()
	t.partitioned = on
	t.mu.Unlock()
}

// Partitioned reports whether the hard partition is up.
func (t *Transport) Partitioned() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.partitioned
}

// Refused returns the number of requests the partition has failed.
func (t *Transport) Refused() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.refused
}

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.mu.Lock()
	blocked := t.partitioned
	if blocked {
		t.refused++
	}
	t.mu.Unlock()
	if !blocked {
		return http.DefaultTransport.RoundTrip(req)
	}
	if req.Body != nil {
		req.Body.Close()
	}
	return nil, fmt.Errorf("netchaos: partitioned: %s %s", req.Method, req.URL)
}
