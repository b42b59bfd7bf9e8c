package xid

import (
	"encoding/json"
	"sort"
	"strings"
	"testing"
)

func TestTaxonomyClosed(t *testing.T) {
	codes := Codes()
	if !sort.IntsAreSorted(codes) {
		t.Errorf("Codes() not sorted: %v", codes)
	}
	want := []int{DoubleBitECC, RowRemapRecorded, RowRemapFailure, OffTheBus, HighSBERate, ContainedECC, UncontainedECC}
	sort.Ints(want)
	if len(codes) != len(want) {
		t.Fatalf("taxonomy has %d codes, want %d", len(codes), len(want))
	}
	for i, c := range want {
		if codes[i] != c {
			t.Errorf("Codes()[%d] = %d, want %d", i, codes[i], c)
		}
	}
	for _, c := range []int{0, 1, 13, 47, 49, 99, -48} {
		if Known(c) {
			t.Errorf("Known(%d) = true for a code outside the taxonomy", c)
		}
		if _, ok := Lookup(c); ok {
			t.Errorf("Lookup(%d) ok for a code outside the taxonomy", c)
		}
	}
}

func TestDetailMetadata(t *testing.T) {
	for _, c := range Codes() {
		d, ok := Lookup(c)
		if !ok {
			t.Fatalf("Lookup(%d) not ok for listed code", c)
		}
		if d.ID != c {
			t.Errorf("code %d: Detail.ID = %d", c, d.ID)
		}
		if d.Name == "" || d.Description == "" {
			t.Errorf("code %d: empty name or description", c)
		}
		if d.SeverityName != d.Severity.String() {
			t.Errorf("code %d: SeverityName %q != %q", c, d.SeverityName, d.Severity.String())
		}
		if d.RemediationName != d.Remediation.String() {
			t.Errorf("code %d: RemediationName %q != %q", c, d.RemediationName, d.Remediation.String())
		}
	}
	// Every ingested event must carry remediation metadata via its code:
	// the acceptance criterion is checked here once for the whole table.
	if d, _ := Lookup(OffTheBus); d.Severity != Fatal || d.Remediation != RemedRetire {
		t.Errorf("Xid 79 = %+v, want fatal/retire", d)
	}
	if d, _ := Lookup(ContainedECC); d.Severity != Info || d.Remediation != RemedNone {
		t.Errorf("Xid 94 = %+v, want info/none", d)
	}
	if d, _ := Lookup(UncontainedECC); !d.SDCRisk || !d.FBCorruption {
		t.Errorf("Xid 95 = %+v, want SDC risk + FB corruption", d)
	}
}

func TestDetailJSONCarriesEnumNames(t *testing.T) {
	d, _ := Lookup(RowRemapFailure)
	raw, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	s := string(raw)
	for _, frag := range []string{`"severity":"critical"`, `"remediation":"retire"`, `"id":64`} {
		if !strings.Contains(s, frag) {
			t.Errorf("Detail JSON %s missing %s", s, frag)
		}
	}
}

func TestEventDedupKey(t *testing.T) {
	a := Event{Node: "n1", Code: ContainedECC, Row: 7}
	b := Event{Node: "n1", Code: ContainedECC, Row: 9}
	if a.DedupKey() != b.DedupKey() {
		t.Errorf("contained ECC dedup keys differ by row: %+v vs %+v", a.DedupKey(), b.DedupKey())
	}
	r1 := Event{Node: "n1", Code: RowRemapRecorded, Row: 7}
	r2 := Event{Node: "n1", Code: RowRemapRecorded, Row: 9}
	if r1.DedupKey() == r2.DedupKey() {
		t.Errorf("remap dedup keys must be row-scoped, both %+v", r1.DedupKey())
	}
	other := Event{Node: "n2", Code: ContainedECC}
	if a.DedupKey() == other.DedupKey() {
		t.Error("dedup keys must be node-scoped")
	}
}

func TestEventN(t *testing.T) {
	if n := (Event{}).N(); n != 1 {
		t.Errorf("zero Count N() = %d, want 1", n)
	}
	if n := (Event{Count: 5}).N(); n != 5 {
		t.Errorf("Count 5 N() = %d", n)
	}
}

func TestEnumStrings(t *testing.T) {
	if Severity(99).String() == "" || Remediation(99).String() == "" {
		t.Error("out-of-range enums must still print")
	}
	if Fatal.String() != "fatal" || RemedRetire.String() != "retire" {
		t.Errorf("enum strings: %q %q", Fatal.String(), RemedRetire.String())
	}
}
