package resilience

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"time"
)

// WAL is a CRC-framed append-only write-ahead log: the durability
// primitive the fleet coordinator (and any other stateful daemon) pairs
// with SaveJSON snapshots. Each record is framed as
//
//	[len uint32 LE][crc32(payload) uint32 LE][payload]
//
// and appended with a single write(2), so every record acknowledged to
// a caller has left the process before the ack — a SIGKILL loses
// nothing that was acked. Machine-crash durability is governed by
// syncEvery: every syncEvery appended records the append path kicks a
// background syncer goroutine that fsyncs the file, so the dirty-page
// writeback overlaps ingest instead of stalling it. The loss window of
// a whole-machine crash is the tail appended since the last fsync that
// completed — on the order of syncEvery records, or ~50ms of ingest at
// append rates high enough to hit the syncer's rate limit. Sync, Reset
// and Close fsync synchronously; a failed background fsync is sticky
// and fails the next Append (durability can no longer be promised, so
// the caller must stop acking).
//
// Replay is truncation-tolerant: OpenWAL scans the log record by
// record and stops at the first frame that is short, oversized, or
// fails its CRC — the torn tail a crash mid-append leaves behind — and
// truncates the file back to the last intact record before appending
// resumes. A corrupt record therefore bounds recovery to the intact
// prefix; nothing after it can be trusted (frame boundaries are gone).
//
// WAL is not safe for concurrent use; callers serialize (the
// coordinator appends under its ingest lock). The background syncer is
// internal and synchronizes only through the kick channel and the
// sticky-error mutex.
type WAL struct {
	f       *os.File
	path    string
	records int
	size    int64
	pending int // records appended since the last fsync kick
	opts    WALOptions
	buf     []byte

	syncReq  chan struct{} // kicks the background syncer (buffered, coalescing)
	syncDone chan struct{} // closed when the syncer goroutine exits
	mu       sync.Mutex    // guards syncErr
	syncErr  error         // sticky background fsync failure
}

// WALOptions tunes a WAL.
type WALOptions struct {
	// MaxRecord bounds one record's payload (default 1 MiB). Replay
	// treats a frame claiming more as corruption.
	MaxRecord int
}

// syncEvery kicks the background fsync after every syncEvery appended
// records. The cadence only bounds the loss window of a whole-machine
// crash: process death never loses an acked record regardless, because
// each append is a write(2) that reached the kernel before the ack.
const syncEvery = 1024

func (o *WALOptions) defaults() {
	if o.MaxRecord <= 0 {
		o.MaxRecord = 1 << 20
	}
}

const walHeader = 8 // u32 length + u32 CRC32

// OpenWAL opens (creating if absent) the log at path and replays every
// intact record through fn in append order before returning the WAL
// ready for appends. A torn or corrupt tail is truncated away; fn
// returning an error aborts the open (the log is left untouched).
// fn may be nil to skip replay (the records still count toward
// compaction bookkeeping).
func OpenWAL(path string, opts WALOptions, fn func(rec []byte) error) (*WAL, error) {
	opts.defaults()
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	w := &WAL{f: f, path: path, opts: opts}
	if err := w.replay(fn); err != nil {
		f.Close()
		return nil, err
	}
	w.syncReq = make(chan struct{}, 1)
	w.syncDone = make(chan struct{})
	go w.syncLoop()
	return w, nil
}

// minSyncGap rate-limits the background syncer. An fsync writes back
// the shared tail page while the appender is still filling it, and the
// appender then stalls on stable-page writeback — back-to-back
// background fsyncs at six-figure append rates cost more in those
// stalls than they buy. One flush per gap keeps contention flat under
// load; at realistic report rates the gap never engages.
const minSyncGap = 50 * time.Millisecond

// syncLoop is the background syncer: each kick fsyncs everything
// written so far, at most once per minSyncGap. Kicks coalesce (the
// channel holds one), so a slow or rate-limited flush absorbs the
// cadence behind it in a single fsync. A failure is sticky — recorded
// once and surfaced by the next Append or Sync.
func (w *WAL) syncLoop() {
	defer close(w.syncDone)
	var last time.Time
	for range w.syncReq {
		if d := time.Since(last); d < minSyncGap {
			time.Sleep(minSyncGap - d)
		}
		last = time.Now()
		if err := w.f.Sync(); err != nil {
			w.mu.Lock()
			if w.syncErr == nil {
				w.syncErr = fmt.Errorf("wal: background sync: %w", err)
			}
			w.mu.Unlock()
		}
	}
}

// bgErr reports the sticky background-sync failure, if any.
func (w *WAL) bgErr() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.syncErr
}

// replay scans the log from the start, calling fn per intact record,
// and truncates at the first sign of a torn tail.
func (w *WAL) replay(fn func(rec []byte) error) error {
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	var (
		off    int64
		header [walHeader]byte
	)
	for {
		if _, err := io.ReadFull(w.f, header[:]); err != nil {
			// io.EOF: clean end. ErrUnexpectedEOF: torn header.
			break
		}
		n := binary.LittleEndian.Uint32(header[0:])
		crc := binary.LittleEndian.Uint32(header[4:])
		if int(n) > w.opts.MaxRecord {
			break // garbage length; cannot trust the frame
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(w.f, payload); err != nil {
			break // torn payload
		}
		if crc32.ChecksumIEEE(payload) != crc {
			break // corrupt record; everything after is untrusted
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return fmt.Errorf("wal: replaying record %d: %w", w.records, err)
			}
		}
		w.records++
		off += walHeader + int64(n)
	}
	if err := w.f.Truncate(off); err != nil {
		return fmt.Errorf("wal: truncating torn tail: %w", err)
	}
	if _, err := w.f.Seek(off, io.SeekStart); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	w.size = off
	return nil
}

// Append frames rec and writes it with one write(2) call, so the
// record survives a process kill the moment Append returns. Returns
// the first error encountered; after an error the log should be
// considered failed (the caller decides whether to refuse new work).
func (w *WAL) Append(rec []byte) error {
	if err := w.bgErr(); err != nil {
		return err
	}
	if len(rec) > w.opts.MaxRecord {
		return fmt.Errorf("wal: record of %d bytes exceeds %d", len(rec), w.opts.MaxRecord)
	}
	need := walHeader + len(rec)
	if cap(w.buf) < need {
		w.buf = make([]byte, need, need*2)
	}
	frame := w.buf[:need]
	binary.LittleEndian.PutUint32(frame[0:], uint32(len(rec)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(rec))
	copy(frame[walHeader:], rec)
	if _, err := w.f.Write(frame); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	w.records++
	w.size += int64(need)
	w.pending++
	if w.pending >= syncEvery {
		w.pending = 0
		select {
		case w.syncReq <- struct{}{}:
		default: // a kick is already queued; its fsync will cover this record
		}
	}
	return nil
}

// Sync fsyncs the log synchronously (machine-crash durability up to
// this record). Concurrent with the background syncer this is safe —
// fsync on the same fd serializes in the kernel.
func (w *WAL) Sync() error {
	w.pending = 0
	if err := w.bgErr(); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	return nil
}

// Reset truncates the log to empty — called after the state it covers
// has been compacted into a durable snapshot. The snapshot must be on
// disk before Reset; if the process dies between snapshot and Reset,
// replaying the stale records over the snapshot must be idempotent
// (the coordinator's seq dedup guarantees this).
func (w *WAL) Reset() error {
	if err := w.bgErr(); err != nil {
		return err
	}
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("wal: reset: %w", err)
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("wal: reset: %w", err)
	}
	w.records, w.size, w.pending = 0, 0, 0
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("wal: reset: %w", err)
	}
	return nil
}

// Records returns the number of records in the log (replayed plus
// appended since open or the last Reset).
func (w *WAL) Records() int { return w.records }

// Size returns the log's byte length.
func (w *WAL) Size() int64 { return w.size }

// Path returns the log's file path.
func (w *WAL) Path() string { return w.path }

// Close stops the background syncer, syncs, and closes the log.
func (w *WAL) Close() error {
	if w.f == nil {
		return nil
	}
	close(w.syncReq) // stop the background syncer and wait for it
	<-w.syncDone
	err := w.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	if err != nil && !errors.Is(err, os.ErrClosed) {
		return err
	}
	return nil
}
