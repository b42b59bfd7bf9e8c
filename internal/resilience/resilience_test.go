package resilience

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRetryPolicyBackoff checks the retry backoff schedule: each
// attempt's delay stays inside the jittered envelope of a doubling from
// base, and the cap holds once the doubling passes it.
func TestRetryPolicyBackoff(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for attempt := 1; attempt < 4; attempt++ {
		d := Backoff(rng, attempt, 1e-6, 1e-3)
		base := 1e-6
		for i := 1; i < attempt; i++ {
			base *= 2
		}
		if d < base*0.5 || d > base*1.5 {
			t.Fatalf("attempt %d delay %g outside [%g,%g]", attempt, d, base*0.5, base*1.5)
		}
	}
	for attempt := 10; attempt < 40; attempt++ {
		if d := Backoff(rng, attempt, 1e-6, 1e-3); d < 0.5e-3 || d > 1e-3 {
			t.Fatalf("attempt %d delay %g outside the capped envelope [5e-4,1e-3]", attempt, d)
		}
	}
}

func TestRetryPolicyDeterministicJitter(t *testing.T) {
	a := rand.New(rand.NewSource(42))
	b := rand.New(rand.NewSource(42))
	for attempt := 1; attempt < 8; attempt++ {
		da, db := Backoff(a, attempt, 1e-6, 1e-3), Backoff(b, attempt, 1e-6, 1e-3)
		if da != db {
			t.Fatalf("attempt %d: jitter not deterministic (%g vs %g)", attempt, da, db)
		}
	}
}

func TestCheckpointSaveLoadAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.json")
	type payload struct {
		Runs  int     `json:"runs"`
		Clock float64 `json:"clock"`
	}
	want := payload{Runs: 17, Clock: 3.25}
	if err := SaveJSON(path, want); err != nil {
		t.Fatal(err)
	}
	// No temp files left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("temp file left behind: %s", e.Name())
		}
	}
	var got payload
	if err := LoadJSON(path, &got); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("round trip: got %+v want %+v", got, want)
	}
	// Overwrite keeps the file readable at every moment.
	want.Runs = 18
	if err := SaveJSON(path, want); err != nil {
		t.Fatal(err)
	}
	if err := LoadJSON(path, &got); err != nil {
		t.Fatal(err)
	}
	if got.Runs != 18 {
		t.Fatalf("overwrite lost: %+v", got)
	}
}

func TestCheckpointLoadMissing(t *testing.T) {
	var v struct{}
	err := LoadJSON(filepath.Join(t.TempDir(), "absent.json"), &v)
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("want ErrNotExist, got %v", err)
	}
}

func TestCheckpointLoadCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	var v struct{}
	if err := LoadJSON(path, &v); err == nil {
		t.Fatal("corrupt checkpoint accepted")
	}
}
