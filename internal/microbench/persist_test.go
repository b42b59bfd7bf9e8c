package microbench

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hbm2ecc/internal/dram"
	"hbm2ecc/internal/hbm2"
)

func sampleLog(t *testing.T) *Log {
	t.Helper()
	dev := dram.New(hbm2.V100(), 0.048)
	for i := int64(0); i < 5; i++ {
		dev.AddWeakCell(i*777, dram.WeakCell{Bit: int(i), Retention: 0.001, LeakTo: 0})
	}
	log := Run(Config{Device: dev, Pattern: Checkerboard, Seed: 1, DiscardProb: -1})
	if len(log.Records) == 0 {
		t.Fatal("sample log empty")
	}
	return log
}

func logsEqual(a, b *Log) bool {
	if a.Pattern != b.Pattern || a.StartTime != b.StartTime ||
		a.EndTime != b.EndTime || a.Discarded != b.Discarded ||
		len(a.Records) != len(b.Records) {
		return false
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			return false
		}
	}
	return true
}

// TestReadLogsRejectsMalformed feeds ReadLogs a valid log on line 1 and
// a malformed one on line 2: each must be refused with an error naming
// the line and, for a bad record, the record, never classified.
func TestReadLogsRejectsMalformed(t *testing.T) {
	pay := fmt.Sprintf(`"exp":"%[1]s","got":"%[1]s"`, strings.Repeat("00", hbm2.EntryBytes))
	rec := func(fields string) string {
		return `{"pattern":0,"records":[{` + pay + `},{` + fields + `,` + pay + `}]}`
	}
	cases := []struct {
		name, line, want string
	}{
		{"garbage", "not json", "line 2"},
		{"bad hex", `{"records":[{"exp":"zz","got":""}]}`, "line 2: record 0 expected"},
		{"short payload", `{"records":[{"exp":"00","got":"00"}]}`, "line 2: record 0 expected: payload length 1"},
		{"pattern too large", `{"pattern":99}`, "line 2: pattern 99 outside"},
		{"negative pattern", `{"pattern":-1}`, "line 2: pattern -1 outside"},
		{"entry too large", rec(`"e":9000000000000000000`), "line 2: record 1: entry 9000000000000000000 outside"},
		{"negative entry", rec(`"e":-9000000000000000000`), "line 2: record 1: entry -9000000000000000000 outside"},
		{"entry one past the device", rec(fmt.Sprintf(`"e":%d`, hbm2.V100().Entries())), "line 2: record 1: entry"},
		{"negative write pass", rec(`"w":-3`), "line 2: record 1: negative write pass -3"},
		{"negative read pass", rec(`"r":-1`), "line 2: record 1: negative read pass -1"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "logs.jsonl")
			body := rec(fmt.Sprintf(`"e":%d,"w":9,"r":19`, hbm2.V100().Entries()-1)) + "\n" + c.line + "\n"
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
			logs, err := ReadLogs(path)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("ReadLogs = %d logs, %v; want an error containing %q", len(logs), err, c.want)
			}
		})
	}
}

func TestWriteReadLogsFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "campaign.jsonl")
	a := sampleLog(t)
	b := sampleLog(t)
	b.Discarded = true
	if err := WriteLogs(path, []*Log{a, b}); err != nil {
		t.Fatal(err)
	}
	back, err := ReadLogs(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || !logsEqual(a, back[0]) || !logsEqual(b, back[1]) {
		t.Fatal("file round trip changed the campaign")
	}
	if _, err := ReadLogs(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing file must error")
	}
}
