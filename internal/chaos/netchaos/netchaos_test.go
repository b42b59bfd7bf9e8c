package netchaos

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

func newBackend(t *testing.T, hits *atomic.Int64) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		body, _ := io.ReadAll(r.Body)
		fmt.Fprintf(w, `{"echo":%q}`, string(body))
	}))
	t.Cleanup(srv.Close)
	return srv
}

func post(t *testing.T, client *http.Client, url, body string) (string, error) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	return string(raw), nil
}

func TestPartitionBlocksAndHeals(t *testing.T) {
	var hits atomic.Int64
	srv := newBackend(t, &hits)
	tr := &Transport{}
	client := &http.Client{Transport: tr}

	if _, err := post(t, client, srv.URL, "pre"); err != nil {
		t.Fatal(err)
	}
	tr.SetPartitioned(true)
	if _, err := post(t, client, srv.URL, "during"); err == nil {
		t.Fatal("request crossed a partition")
	}
	if !tr.Partitioned() {
		t.Fatal("partition flag lost")
	}
	tr.SetPartitioned(false)
	if _, err := post(t, client, srv.URL, "post"); err != nil {
		t.Fatalf("healed partition still failing: %v", err)
	}
	if hits.Load() != 2 {
		t.Fatalf("backend saw %d requests, want 2", hits.Load())
	}
	if n := tr.Refused(); n != 1 {
		t.Fatalf("partition drops = %d, want 1", n)
	}
}
