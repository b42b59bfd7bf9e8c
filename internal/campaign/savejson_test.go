package campaign

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// withSeam swaps one filesystem seam for the duration of a test.
func withSeam[T any](t *testing.T, slot *T, replacement T) {
	t.Helper()
	orig := *slot
	*slot = replacement
	t.Cleanup(func() { *slot = orig })
}

type ckPayload struct {
	Generation int    `json:"generation"`
	Note       string `json:"note"`
}

// saveThenInjectAndCheck writes a good generation-1 checkpoint, runs
// save (expected to fail against an injected fault), and asserts the
// previous checkpoint is byte-for-byte intact and no temp litter
// remains.
func saveThenInjectAndCheck(t *testing.T, inject func(t *testing.T), wantErr string) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	if err := saveJSON(path, ckPayload{Generation: 1, Note: "good"}); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	inject(t)
	err = saveJSON(path, ckPayload{Generation: 2, Note: "doomed"})
	if err == nil || !strings.Contains(err.Error(), wantErr) {
		t.Fatalf("saveJSON error = %v, want containing %q", err, wantErr)
	}

	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("previous checkpoint unreadable after failed save: %v", err)
	}
	if string(after) != string(before) {
		t.Fatalf("failed save clobbered the previous checkpoint:\n%s", after)
	}
	var got ckPayload
	if err := loadJSON(path, &got); err != nil {
		t.Fatal(err)
	}
	if got.Generation != 1 {
		t.Fatalf("recovered generation %d, want 1", got.Generation)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("temp litter left behind: %s", e.Name())
		}
	}
}

func TestSaveJSONWriteFailureKeepsPrevious(t *testing.T) {
	saveThenInjectAndCheck(t, func(t *testing.T) {
		withSeam(t, &fsWrite, func(*os.File, []byte) (int, error) {
			return 0, fmt.Errorf("injected: disk full")
		})
	}, "write")
}

func TestSaveJSONPartialWriteKeepsPrevious(t *testing.T) {
	saveThenInjectAndCheck(t, func(t *testing.T) {
		withSeam(t, &fsWrite, func(f *os.File, b []byte) (int, error) {
			// Half the document lands, then the "device" dies — the torn
			// temp file must never reach the destination name.
			n, _ := f.Write(b[:len(b)/2])
			return n, fmt.Errorf("injected: device gone mid-write")
		})
	}, "write")
}

func TestSaveJSONSyncFailureKeepsPrevious(t *testing.T) {
	saveThenInjectAndCheck(t, func(t *testing.T) {
		withSeam(t, &fsSync, func(*os.File) error {
			return fmt.Errorf("injected: fsync EIO")
		})
	}, "sync")
}

func TestSaveJSONRenameFailureKeepsPrevious(t *testing.T) {
	saveThenInjectAndCheck(t, func(t *testing.T) {
		withSeam(t, &fsRename, func(string, string) error {
			return fmt.Errorf("injected: rename EXDEV")
		})
	}, "rename")
}

func TestSaveJSONCreateTempFailure(t *testing.T) {
	saveThenInjectAndCheck(t, func(t *testing.T) {
		withSeam(t, &fsCreateTemp, func(string, string) (*os.File, error) {
			return nil, errors.New("injected: EACCES")
		})
	}, "EACCES")
}

// TestSaveJSONCrashBeforeRename models a process kill after the temp
// file is written but before the rename: the destination still holds
// the old generation, and a later successful save wins cleanly.
func TestSaveJSONCrashBeforeRename(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	if err := saveJSON(path, ckPayload{Generation: 1}); err != nil {
		t.Fatal(err)
	}
	// "Crash": the rename never happens; the temp file is orphaned the
	// way a SIGKILL between close and rename would leave it.
	withSeam(t, &fsRename, func(tmp, _ string) error {
		return fmt.Errorf("injected: killed before rename (tmp %s)", filepath.Base(tmp))
	})
	_ = saveJSON(path, ckPayload{Generation: 2})
	var got ckPayload
	if err := loadJSON(path, &got); err != nil || got.Generation != 1 {
		t.Fatalf("after crash-before-rename: %+v, %v", got, err)
	}
	// Restart: seams restored, the next save succeeds atomically.
	t.Cleanup(func() {})
	fsRenameOrig := os.Rename
	fsRename = fsRenameOrig
	if err := saveJSON(path, ckPayload{Generation: 3}); err != nil {
		t.Fatal(err)
	}
	if err := loadJSON(path, &got); err != nil || got.Generation != 3 {
		t.Fatalf("post-restart save: %+v, %v", got, err)
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
	if err := saveJSON(path, want); err != nil {
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
	if err := loadJSON(path, &got); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("round trip: got %+v want %+v", got, want)
	}
	// Overwrite keeps the file readable at every moment.
	want.Runs = 18
	if err := saveJSON(path, want); err != nil {
		t.Fatal(err)
	}
	if err := loadJSON(path, &got); err != nil {
		t.Fatal(err)
	}
	if got.Runs != 18 {
		t.Fatalf("overwrite lost: %+v", got)
	}
}

func TestCheckpointLoadMissing(t *testing.T) {
	var v struct{}
	err := loadJSON(filepath.Join(t.TempDir(), "absent.json"), &v)
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
	if err := loadJSON(path, &v); err == nil {
		t.Fatal("corrupt checkpoint accepted")
	}
}
