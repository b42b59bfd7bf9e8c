package campaign

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Filesystem seams, swapped by the fault-injection tests so every
// failure leg of saveJSON (write, fsync, close, rename) can be driven
// deterministically. Production code never touches these.
var (
	fsCreateTemp = os.CreateTemp
	fsWrite      = (*os.File).Write
	fsSync       = (*os.File).Sync
	fsRename     = os.Rename
)

// saveJSON atomically writes v as JSON to path: the document is written
// to a temp file in the same directory, fsynced, and renamed over the
// destination, so a crash or SIGKILL mid-write never leaves a torn
// checkpoint — the previous snapshot survives intact. After the rename
// the directory is fsynced too, so the new name itself survives a
// machine crash (best effort: directory sync errors on filesystems
// that refuse it are ignored).
func saveJSON(path string, v any) error {
	dir := filepath.Dir(path)
	f, err := fsCreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	tmp := f.Name()
	raw, err := json.Marshal(v)
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: encode: %w", err)
	}
	raw = append(raw, '\n')
	if _, err := fsWrite(f, raw); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: write: %w", err)
	}
	if err := fsSync(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: sync: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: close: %w", err)
	}
	if err := fsRename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: rename: %w", err)
	}
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}

// loadJSON reads a checkpoint written by saveJSON into v. A missing file
// surfaces as an error wrapping os.ErrNotExist, so callers can treat
// "no checkpoint yet" as a fresh start.
func loadJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("checkpoint: decode %s: %w", path, err)
	}
	return nil
}
