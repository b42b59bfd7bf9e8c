package main

import (
	"strings"
	"testing"
	"time"

	"hbm2ecc/internal/obs"
)

// TestWriteSectionsAddsUp: the section rows and the unattributed row
// sum to the total, and phases nested inside a section are left out.
func TestWriteSectionsAddsUp(t *testing.T) {
	phases := []obs.PhaseStat{
		{Name: sectionPrefix + "ecc_eval", Count: 1, Total: 600 * time.Millisecond, Wall: 600 * time.Millisecond},
		{Name: "campaign", Count: 1, Total: 250 * time.Millisecond, Wall: 250 * time.Millisecond},
		{Name: sectionPrefix + "characterization", Count: 1, Total: 300 * time.Millisecond, Wall: 300 * time.Millisecond},
	}
	var b strings.Builder
	if err := writeSections(&b, phases, time.Second); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	for _, want := range []string{
		"repro.ecc_eval                   600ms    60.0%\n",
		"repro.characterization           300ms    30.0%\n",
		"unattributed                     100ms    10.0%\n",
		"total                               1s   100.0%\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("missing row %q in\n%s", want, got)
		}
	}
	if strings.Contains(got, "campaign") {
		t.Errorf("nested phase listed as a section:\n%s", got)
	}
	if err := writeSections(&b, phases, 0); err == nil {
		t.Error("zero total accepted")
	}
}
