package workload

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"sync"
	"testing"
)

// TestCampaignDeterministicConcurrent runs eight full campaigns
// concurrently (each itself cell-parallel) and requires byte-identical
// marshalled outcome ledgers. Run under -race this also checks the campaign engine
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

// TestCampaignGoldenDigest pins the sha256 of the marshalled default
// campaign at seed 2021 with 60 and with 6 runs per cell (the perfbench
// workload_campaign full and reduced pins), so any change that moves a
// workload outcome fails here. The 6-run pin holds with cells run in
// parallel and one at a time.
func TestCampaignGoldenDigest(t *testing.T) {
	for _, tc := range []struct {
		runs     int
		parallel bool
		want     string
	}{
		{60, true, "669ed04ed5ce5a147dbca554b02a0d05ab7577b29f6ac0a99b02b3e4c95436d3"},
		{6, true, "10c2f1ecc52fc14bdb21b9012b30e1950d389201d10f8ec87b441e6d0d1e98b0"},
		{6, false, "10c2f1ecc52fc14bdb21b9012b30e1950d389201d10f8ec87b441e6d0d1e98b0"},
	} {
		res, err := Campaign(Options{Seed: 2021, Runs: tc.runs, Parallel: tc.parallel})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("runs=%d parallel=%v: digest %s, want %s", tc.runs, tc.parallel, got, tc.want)
		}
	}
}
