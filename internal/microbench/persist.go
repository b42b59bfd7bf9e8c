package microbench

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"hbm2ecc/internal/hbm2"
)

// jsonRecord is the on-disk form of a Record: payloads as hex strings so
// campaign logs stay compact and diff-able.
type jsonRecord struct {
	Time      float64 `json:"t"`
	WritePass int     `json:"w"`
	ReadPass  int     `json:"r"`
	Entry     int64   `json:"e"`
	Expected  string  `json:"exp"`
	Got       string  `json:"got"`
}

// jsonLog is the on-disk form of a Log.
type jsonLog struct {
	Pattern   int          `json:"pattern"`
	StartTime float64      `json:"start"`
	EndTime   float64      `json:"end"`
	Discarded bool         `json:"discarded"`
	Records   []jsonRecord `json:"records"`
}

func (l *Log) toJSON() jsonLog {
	out := jsonLog{
		Pattern:   int(l.Pattern),
		StartTime: l.StartTime,
		EndTime:   l.EndTime,
		Discarded: l.Discarded,
		Records:   make([]jsonRecord, 0, len(l.Records)),
	}
	for _, r := range l.Records {
		out.Records = append(out.Records, jsonRecord{
			Time: r.Time, WritePass: r.WritePass, ReadPass: r.ReadPass, Entry: r.Entry,
			Expected: hex.EncodeToString(r.Expected[:]),
			Got:      hex.EncodeToString(r.Got[:]),
		})
	}
	return out
}

// v100Entries bounds a record's entry index: the campaign device is a V100.
var v100Entries = hbm2.V100().Entries()

// logFromJSON decodes and validates the on-disk form: a pattern outside
// the known kinds, an entry outside the device, or a negative pass
// index is refused rather than classified.
func logFromJSON(in jsonLog) (*Log, error) {
	if in.Pattern < 0 || in.Pattern >= int(NumPatterns) {
		return nil, fmt.Errorf("pattern %d outside [0, %d)", in.Pattern, NumPatterns)
	}
	log := &Log{
		Pattern:   PatternKind(in.Pattern),
		StartTime: in.StartTime,
		EndTime:   in.EndTime,
		Discarded: in.Discarded,
	}
	for i, jr := range in.Records {
		switch {
		case jr.Entry < 0 || jr.Entry >= v100Entries:
			return nil, fmt.Errorf("record %d: entry %d outside [0, %d)", i, jr.Entry, v100Entries)
		case jr.WritePass < 0:
			return nil, fmt.Errorf("record %d: negative write pass %d", i, jr.WritePass)
		case jr.ReadPass < 0:
			return nil, fmt.Errorf("record %d: negative read pass %d", i, jr.ReadPass)
		}
		rec := Record{Time: jr.Time, WritePass: jr.WritePass, ReadPass: jr.ReadPass, Entry: jr.Entry}
		if err := decodeHex32(jr.Expected, &rec.Expected); err != nil {
			return nil, fmt.Errorf("record %d expected: %w", i, err)
		}
		if err := decodeHex32(jr.Got, &rec.Got); err != nil {
			return nil, fmt.Errorf("record %d got: %w", i, err)
		}
		log.Records = append(log.Records, rec)
	}
	return log, nil
}

func decodeHex32(s string, out *[hbm2.EntryBytes]byte) error {
	b, err := hex.DecodeString(s)
	if err != nil {
		return err
	}
	if len(b) != hbm2.EntryBytes {
		return fmt.Errorf("payload length %d, want %d", len(b), hbm2.EntryBytes)
	}
	copy(out[:], b)
	return nil
}

// WriteLogs writes a campaign (one JSON log per line) to path.
func WriteLogs(path string, logs []*Log) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, l := range logs {
		if err := enc.Encode(l.toJSON()); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// ReadLogs reads a campaign written by WriteLogs, one log per line. A
// malformed log is an error naming its line (and record), never a log.
func ReadLogs(path string) ([]*Log, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := bufio.NewReader(f)
	var logs []*Log
	for line := 1; ; line++ {
		b, readErr := r.ReadBytes('\n')
		if readErr != nil && readErr != io.EOF {
			return nil, readErr
		}
		if len(bytes.TrimSpace(b)) > 0 {
			var in jsonLog
			err := json.Unmarshal(b, &in)
			var log *Log
			if err == nil {
				log, err = logFromJSON(in)
			}
			if err != nil {
				return nil, fmt.Errorf("microbench: %s line %d: %w", path, line, err)
			}
			logs = append(logs, log)
		}
		if readErr == io.EOF {
			return logs, nil
		}
	}
}
