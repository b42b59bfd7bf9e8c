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
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hbm2ecc/internal/obs"
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

// post sends body to url with a plain http.Client and returns the
// status code and response body.
func post(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
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

	if code, body := post(t, base+"/", strings.Repeat("x", 1024)); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized POST: HTTP %d %s, want 413", code, body)
	}
	if code, body := post(t, base+"/", `"small"`); code != http.StatusOK {
		t.Fatalf("bounded POST: HTTP %d %s", code, body)
	}
}

func TestReadBodyLimit(t *testing.T) {
	got := make(chan error, 1)
	base, _ := startServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, err := ReadBody(r, 16)
		got <- err
		WriteJSON(w, http.StatusOK, nil)
	}), 0)
	if code, _ := post(t, base+"/", strings.Repeat("y", 64)); code != http.StatusOK {
		t.Fatalf("HTTP %d", code)
	}
	if err := <-got; err == nil {
		t.Fatal("ReadBody accepted a body past its limit")
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

	reqDone := make(chan error, 1)
	go func() {
		resp, err := http.Get(base + "/")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("HTTP %d", resp.StatusCode)
			}
		}
		reqDone <- err
	}()
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

	resp, err := http.Get(d.URL() + "/")
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		OK bool `json:"ok"`
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || !out.OK {
		t.Fatalf("daemon request: HTTP %d, %v (ok=%v)", resp.StatusCode, err, out.OK)
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
