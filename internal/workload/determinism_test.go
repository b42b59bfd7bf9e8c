package workload

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// TestCampaignDeterministicConcurrent runs eight full campaigns
// concurrently (each itself cell-parallel) and requires byte-identical
// marshalled outcome ledgers — the determinism contract the checkpoint
// relies on. Run under -race this also checks the campaign engine
// shares nothing across campaigns, and that both schemes' cells read
// the kernel's one trace without a race.
func TestCampaignDeterministicConcurrent(t *testing.T) {
	opts := Options{Seed: 11, Runs: 40, Schemes: []string{NoECC, "DuetECC"},
		Kernels: []Kernel{DNN}, Parallel: true}
	const n = 8
	blobs := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := Campaign(opts)
			if err != nil {
				t.Errorf("campaign %d: %v", i, err)
				return
			}
			b, err := json.Marshal(res)
			if err != nil {
				t.Errorf("campaign %d: marshal: %v", i, err)
				return
			}
			blobs[i] = b
		}()
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if !bytes.Equal(blobs[0], blobs[i]) {
			t.Fatalf("campaign %d ledger differs from campaign 0:\n%s\nvs\n%s", i, blobs[i], blobs[0])
		}
	}
}

// TestCheckpointResume interrupts a campaign mid-way, saves the
// checkpoint, reloads it from disk, resumes, and requires the resumed
// results to DeepEqual an uninterrupted run, with cells run one at a
// time and in parallel.
func TestCheckpointResume(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		name := "sequential"
		if parallel {
			name = "parallel"
		}
		t.Run(name, func(t *testing.T) {
			opts := Options{Seed: 4, Runs: 30, Schemes: []string{NoECC, "DuetECC"},
				Kernels: []Kernel{GEMM, DNN}, Parallel: parallel}

			full, err := Campaign(opts)
			if err != nil {
				t.Fatal(err)
			}

			// Interrupted run: cancel after two completed cells.
			ctx, cancel := context.WithCancel(context.Background())
			ck := NewCheckpoint(opts)
			first := opts
			first.Ctx = ctx
			done := 0
			first.Progress = func(s string, k Kernel, r CellResult) {
				ck.Store(s, k, r)
				if done++; done == 2 {
					cancel()
				}
			}
			if _, err := Campaign(first); err != context.Canceled {
				t.Fatalf("interrupted campaign err = %v, want context.Canceled", err)
			}
			if ck.Cells() != 2 {
				t.Fatalf("checkpoint holds %d cells, want 2", ck.Cells())
			}

			// Round-trip the checkpoint through disk, as a real resume would.
			path := filepath.Join(t.TempDir(), "workload.ckpt")
			if err := ck.Save(path); err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadCheckpoint(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := loaded.Compatible(opts.Echo()); err != nil {
				t.Fatal(err)
			}

			resumed := opts
			recomputed := 0
			resumed.Resume = loaded.Lookup
			resumed.Progress = func(s string, k Kernel, r CellResult) { recomputed++ }
			got, err := Campaign(resumed)
			if err != nil {
				t.Fatal(err)
			}
			if recomputed != len(full)-2 {
				t.Errorf("resume recomputed %d cells, want %d", recomputed, len(full)-2)
			}
			if !reflect.DeepEqual(got, full) {
				t.Errorf("resumed campaign differs from uninterrupted run:\n%+v\nvs\n%+v", got, full)
			}
		})
	}
}

// TestCampaignGoldenDigest pins the sha256 of the marshalled default
// campaign at seed 2021 with 60 and with 6 runs per cell (the perfbench
// workload_campaign full and reduced pins), so any change that moves a
// workload outcome fails here.
func TestCampaignGoldenDigest(t *testing.T) {
	for _, tc := range []struct {
		runs int
		want string
	}{
		{60, "669ed04ed5ce5a147dbca554b02a0d05ab7577b29f6ac0a99b02b3e4c95436d3"},
		{6, "10c2f1ecc52fc14bdb21b9012b30e1950d389201d10f8ec87b441e6d0d1e98b0"},
	} {
		res, err := Campaign(Options{Seed: 2021, Runs: tc.runs, Parallel: true})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("runs=%d: digest %s, want %s", tc.runs, got, tc.want)
		}
	}
}
