package resilience

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hbm2ecc/internal/obs"
)

func TestRetirementThreshold(t *testing.T) {
	tab := NewRetirementTable(RetirementPolicy{ErrorThreshold: 3, SpareRows: 2})
	if tab.Record(10) || tab.Record(10) {
		t.Fatal("row retired below threshold")
	}
	if tab.Retired(10) {
		t.Fatal("row marked retired below threshold")
	}
	if !tab.Record(10) {
		t.Fatal("row not retired at threshold")
	}
	if !tab.Retired(10) || tab.RetiredCount() != 1 || tab.SparesLeft() != 1 {
		t.Fatalf("retirement state wrong: count=%d spares=%d", tab.RetiredCount(), tab.SparesLeft())
	}
	// Errors on a retired row are ignored (spare is pristine).
	if tab.Record(10) {
		t.Fatal("retired row retired again")
	}
	if tab.errs[10] != 3 {
		t.Fatalf("retired row still accruing errors: %d", tab.errs[10])
	}
}

func TestRetirementSpareExhaustion(t *testing.T) {
	tab := NewRetirementTable(RetirementPolicy{ErrorThreshold: 1, SpareRows: 2})
	for row := int64(0); row < 2; row++ {
		if !tab.Record(row) {
			t.Fatalf("row %d not retired", row)
		}
	}
	if tab.Record(99) {
		t.Fatal("retired past the spare pool")
	}
	if tab.Dropped() != 1 || tab.SparesLeft() != 0 {
		t.Fatalf("dropped=%d sparesLeft=%d", tab.Dropped(), tab.SparesLeft())
	}
	rows := tab.Rows()
	if len(rows) != 2 || rows[0] != 0 || rows[1] != 1 {
		t.Fatalf("Rows() = %v", rows)
	}
}

// TestRowsRetiredCounterAcrossTables: resilience_rows_retired_total
// counts every retirement in the process, across tables, and nothing
// else — a row below threshold, a repeat on a retired row and a
// retirement dropped for want of spares add nothing.
func TestRowsRetiredCounterAcrossTables(t *testing.T) {
	before := rowsRetired()
	a := NewRetirementTable(RetirementPolicy{ErrorThreshold: 1, SpareRows: 2})
	b := NewRetirementTable(RetirementPolicy{ErrorThreshold: 2, SpareRows: 4})
	a.Record(1)
	a.Record(2)
	a.Record(2) // already retired
	a.Record(3) // spares exhausted: dropped
	b.Record(1)
	b.Record(1)
	b.Record(7) // below threshold
	if got := rowsRetired() - before; got != 3 {
		t.Fatalf("resilience_rows_retired_total delta = %v, want 3", got)
	}
	if a.RetiredCount()+b.RetiredCount() != 3 || a.Dropped() != 1 {
		t.Fatalf("tables retired %d+%d rows, dropped %d", a.RetiredCount(), b.RetiredCount(), a.Dropped())
	}
}

// rowsRetired reads resilience_rows_retired_total from the registry
// /metrics serves.
func rowsRetired() float64 {
	for _, f := range obs.Default.Snapshot().Families {
		if f.Name == "resilience_rows_retired_total" {
			return f.Series[0].Value
		}
	}
	return -1
}

func TestRetryPolicyBackoff(t *testing.T) {
	p := NewRetryPolicy(4, 1e-6, 1e-3, 7)
	prevMax := 0.0
	for attempt := 1; attempt < 4; attempt++ {
		d, ok := p.NextDelay(attempt)
		if !ok {
			t.Fatalf("attempt %d refused within budget", attempt)
		}
		// Delay must stay inside the jittered envelope for the attempt.
		base := 1e-6
		for i := 1; i < attempt; i++ {
			base *= 2
		}
		if d < base*0.5 || d > base*1.5 {
			t.Fatalf("attempt %d delay %g outside [%g,%g]", attempt, d, base*0.5, base*1.5)
		}
		if d > 1e-3 {
			t.Fatalf("delay %g above cap", d)
		}
		prevMax = d
	}
	_ = prevMax
	if _, ok := p.NextDelay(4); ok {
		t.Fatal("retry budget not enforced")
	}
}

func TestRetryPolicyDeterministicJitter(t *testing.T) {
	a := NewRetryPolicy(8, 1e-6, 1e-3, 42)
	b := NewRetryPolicy(8, 1e-6, 1e-3, 42)
	for attempt := 1; attempt < 8; attempt++ {
		da, _ := a.NextDelay(attempt)
		db, _ := b.NextDelay(attempt)
		if da != db {
			t.Fatalf("attempt %d: jitter not deterministic (%g vs %g)", attempt, da, db)
		}
	}
}

func TestDegradeGuard(t *testing.T) {
	g := NewDegradeGuard(3)
	if g.RecordDUE() || g.RecordDUE() {
		t.Fatal("degraded below budget")
	}
	if !g.RecordDUE() {
		t.Fatal("not degraded at budget")
	}
	if !g.Degraded() || g.Spent() != 3 {
		t.Fatalf("guard state wrong: degraded=%v spent=%d", g.Degraded(), g.Spent())
	}
	if g.RecordDUE() {
		t.Fatal("degradedNow reported twice")
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
