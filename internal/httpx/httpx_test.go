package httpx

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// startServer serves h on a loopback listener through serve and returns
// its base URL plus a shutdown function.
func startServer(t *testing.T, h http.Handler, limit int64) (string, context.CancelFunc) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serve(ctx, newServer(h, limit), ln, time.Second) }()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return "http://" + ln.Addr().String(), cancel
}

func TestMaxBytesRejectsOversizedBody(t *testing.T) {
	base, _ := startServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := io.ReadAll(r.Body); err != nil {
			var mbe *http.MaxBytesError
			if !errors.As(err, &mbe) {
				t.Errorf("body read error = %v, want MaxBytesError", err)
			}
			Error(w, http.StatusRequestEntityTooLarge, "too large")
			return
		}
		WriteJSON(w, http.StatusOK, map[string]bool{"ok": true})
	}), 64)

	c := NewClient(5 * time.Second)
	_, err := c.Post(context.Background(), base+"/", strings.Repeat("x", 1024))
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized POST: err = %v, want 413", err)
	}
	if _, err := c.Post(context.Background(), base+"/", "small"); err != nil {
		t.Fatalf("bounded POST failed: %v", err)
	}
}

func TestReadBodyLimit(t *testing.T) {
	got := make(chan error, 1)
	base, _ := startServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, err := ReadBody(r, 16)
		got <- err
		WriteJSON(w, http.StatusOK, nil)
	}), 0)
	c := NewClient(5 * time.Second)
	if _, err := c.Post(context.Background(), base+"/", strings.Repeat("y", 64)); err != nil {
		t.Fatal(err)
	}
	if err := <-got; err == nil {
		t.Fatal("ReadBody accepted a body past its limit")
	}
}

func TestClientBoundsResponses(t *testing.T) {
	base, _ := startServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(strings.Repeat("z", 2048)))
	}), 0)
	c := NewClient(5 * time.Second)
	c.MaxBody = 128
	if err := c.GetJSON(context.Background(), base+"/", new(any)); err == nil {
		t.Fatal("client accepted a response past MaxBody")
	}
}

func TestClientSurfacesStatusErrors(t *testing.T) {
	base, _ := startServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		Error(w, http.StatusUnprocessableEntity, "nope")
	}), 0)
	c := NewClient(5 * time.Second)
	err := c.GetJSON(context.Background(), base+"/", nil)
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusUnprocessableEntity {
		t.Fatalf("err = %v, want StatusError 422", err)
	}
	if !strings.Contains(se.Body, "nope") {
		t.Fatalf("status error body = %q", se.Body)
	}
}

func TestServeDrainsGracefully(t *testing.T) {
	var served atomic.Int64
	release := make(chan struct{})
	base, cancel := startServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
		served.Add(1)
		WriteJSON(w, http.StatusOK, map[string]bool{"ok": true})
	}), 0)

	c := NewClient(10 * time.Second)
	reqDone := make(chan error, 1)
	go func() { reqDone <- c.GetJSON(context.Background(), base+"/", nil) }()
	time.Sleep(50 * time.Millisecond) // let the request reach the handler

	// Cancelling the serve context must wait for the in-flight request.
	cancel()
	time.Sleep(50 * time.Millisecond)
	close(release)
	if err := <-reqDone; err != nil {
		t.Fatalf("in-flight request failed during graceful shutdown: %v", err)
	}
	if served.Load() != 1 {
		t.Fatalf("served = %d, want 1", served.Load())
	}
}

// TestDecodeStrict pins the shared frame decoder's contract and its
// error strings, which the wire protocols expose unchanged.
func TestDecodeStrict(t *testing.T) {
	type frame struct {
		A int `json:"a"`
	}
	var f frame
	if err := DecodeStrict("p", []byte(`{"a":3}`), &f, 16); err != nil || f.A != 3 {
		t.Fatalf("valid frame: %+v, %v", f, err)
	}
	for _, tc := range []struct {
		data, want string
	}{
		{`{"a":1,"pad":"0123456789"}`, "p: frame of 26 bytes exceeds 16"},
		{`{"b":1}`, `p: decoding frame: json: unknown field "b"`},
		{`{"a":1} {}`, "p: trailing data after frame"},
		{`{"a":`, "p: decoding frame: unexpected EOF"},
	} {
		if err := DecodeStrict("p", []byte(tc.data), &f, 16); err == nil || err.Error() != tc.want {
			t.Errorf("DecodeStrict(%q) = %v, want %q", tc.data, err, tc.want)
		}
	}
}
