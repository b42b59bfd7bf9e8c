package fleet

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"hbm2ecc/internal/fleet/xid"
	"hbm2ecc/internal/obs"
	"hbm2ecc/internal/resilience"
)

// Durability layer: snapshot + WAL.
//
// A durable coordinator persists its state as an atomic JSON snapshot
// (resilience.SaveJSON: temp file + fsync + rename) plus a CRC-framed
// append-only WAL of every report accepted since that snapshot
// (resilience.WAL). The report is logged before it is acked, so a
// crash or SIGKILL at any instant loses nothing an agent was told was
// ingested. Recovery loads the snapshot and re-drives the WAL through
// the ordinary Report path; the coordinator's sequence-number dedup
// makes replay idempotent — records older than the snapshot (a crash
// can land between snapshot save and WAL reset) ack as duplicates and
// change nothing.
//
// Compaction runs in-line every CompactEvery appends: snapshot first,
// then WAL reset. The order is the crash-safety argument — if the
// process dies between the two, the next recovery replays stale
// records onto the newer snapshot, which dedup absorbs.

var (
	mFleetWALAppends = obs.NewCounter("fleet_wal_appends_total",
		"Reports appended to the durability WAL.").With()
	mFleetWALBytes = obs.NewCounter("fleet_wal_bytes_total",
		"Bytes appended to the durability WAL.").With()
	mFleetCompactions = obs.NewCounter("fleet_compactions_total",
		"Snapshot compactions (snapshot saved, WAL reset).").With()
	mFleetCompactFails = obs.NewCounter("fleet_compaction_failures_total",
		"Failed snapshot compactions (WAL kept growing).").With()
	mFleetRecovered = obs.NewGauge("fleet_recovered_reports",
		"WAL records replayed during the most recent recovery.").With()
)

const (
	snapshotFile = "fleet.snapshot.json"
	walFile      = "fleet.wal"
	// snapshotVersion guards the on-disk schema.
	snapshotVersion = 1
)

// RecoveryInfo describes what a durable coordinator restored on open.
type RecoveryInfo struct {
	// SnapshotNodes is the node count loaded from the snapshot (0 when
	// none existed).
	SnapshotNodes int
	// WALRecords is how many intact records the WAL held.
	WALRecords int
	// WALApplied is how many of those were fresh (non-duplicate) and
	// changed state during replay.
	WALApplied int
	// SimHours is the recovered simulated clock.
	SimHours float64
}

// UnavailableError marks a report the durable coordinator refused
// because it could not be logged: accepting it would let memory state
// diverge from what a restart recovers. It maps to HTTP 503 and is
// retryable — agents keep the report queued in their outbox.
type UnavailableError struct{ Err error }

func (e *UnavailableError) Error() string {
	return fmt.Sprintf("fleet: coordinator durability unavailable: %v", e.Err)
}

func (e *UnavailableError) Unwrap() error { return e.Err }

// durability is the coordinator-attached state of the snapshot+WAL
// pair. All methods are called with the coordinator lock held.
type durability struct {
	dir          string
	wal          *resilience.WAL
	compactEvery int
	sinceCompact int
	encBuf       []byte
	recovered    RecoveryInfo
}

func (d *durability) appendLocked(req *ReportRequest) error {
	d.encBuf = EncodeWALReport(d.encBuf[:0], req)
	if err := d.wal.Append(d.encBuf); err != nil {
		return err
	}
	d.sinceCompact++
	mFleetWALAppends.Inc()
	mFleetWALBytes.Add(uint64(len(d.encBuf)))
	return nil
}

func (d *durability) compactionDue() bool {
	return d.sinceCompact >= d.compactEvery
}

// snapshotPath returns the snapshot location for a state dir.
func snapshotPath(dir string) string { return filepath.Join(dir, snapshotFile) }

// OpenCoordinator builds a coordinator, recovering and persisting state
// under opts.StateDir when it is set (NewCoordinator with an empty
// StateDir otherwise). Recovery loads the latest snapshot, replays the
// WAL through the ordinary ingest path, and truncates any torn tail a
// crash left behind. Callers owning a durable coordinator should Close
// it on clean shutdown.
func OpenCoordinator(opts CoordinatorOptions) (*Coordinator, error) {
	c := NewCoordinator(opts)
	if opts.StateDir == "" {
		return c, nil
	}
	if err := os.MkdirAll(opts.StateDir, 0o755); err != nil {
		return nil, fmt.Errorf("fleet: state dir: %w", err)
	}

	var info RecoveryInfo
	var snap coordSnapshot
	switch err := resilience.LoadJSON(snapshotPath(opts.StateDir), &snap); {
	case err == nil:
		if err := c.restoreSnapshot(&snap); err != nil {
			return nil, err
		}
		info.SnapshotNodes = len(snap.Nodes)
	case errors.Is(err, os.ErrNotExist):
		// Fresh state dir: nothing to restore.
	default:
		return nil, err
	}

	c.replaying = true
	wal, err := resilience.OpenWAL(filepath.Join(opts.StateDir, walFile),
		resilience.WALOptions{MaxRecord: MaxFrame},
		func(rec []byte) error {
			req, err := DecodeWALReport(rec)
			if err != nil {
				return err
			}
			info.WALRecords++
			resp, err := c.Report(req)
			if err != nil {
				return fmt.Errorf("fleet: wal replay of %s seq %d: %w", req.NodeID, req.Seq, err)
			}
			if !resp.Duplicate {
				info.WALApplied++
			}
			return nil
		})
	c.replaying = false
	if err != nil {
		return nil, err
	}

	info.SimHours = c.SimHours()
	mFleetRecovered.Set(float64(info.WALApplied))
	c.dur = &durability{
		dir:          opts.StateDir,
		wal:          wal,
		compactEvery: c.opts.CompactEvery,
		sinceCompact: wal.Records(),
		recovered:    info,
	}
	return c, nil
}

// Recovery returns what the coordinator restored when it was opened
// (zero value for memory-only coordinators).
func (c *Coordinator) Recovery() RecoveryInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dur == nil {
		return RecoveryInfo{}
	}
	return c.dur.recovered
}

// Close flushes and compacts a durable coordinator (no-op otherwise):
// a final snapshot is saved so the next open replays nothing.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dur == nil {
		return nil
	}
	c.compactLocked()
	return c.dur.wal.Close()
}

// compactLocked checkpoints the node table and resets the WAL. The
// snapshot is saved first: a crash between save and reset replays
// stale records, which seq dedup absorbs. A failed save keeps the WAL
// intact — no acked report is ever dropped — and retries at the next
// compaction threshold.
func (c *Coordinator) compactLocked() {
	snap := c.snapshotLocked()
	if err := resilience.SaveJSON(snapshotPath(c.dur.dir), snap); err != nil {
		mFleetCompactFails.Inc()
		// Postpone: try again after another CompactEvery appends.
		c.dur.sinceCompact = 0
		return
	}
	if err := c.dur.wal.Reset(); err != nil {
		mFleetCompactFails.Inc()
		c.dur.sinceCompact = 0
		return
	}
	c.dur.sinceCompact = 0
	mFleetCompactions.Inc()
}

// coordSnapshot is the on-disk checkpoint schema. Codes echoes the Xid
// taxonomy order the per-slot window counts are columned by, so a
// snapshot survives taxonomy reordering across binary versions.
type coordSnapshot struct {
	Version   int            `json:"version"`
	SimHours  float64        `json:"sim_hours"`
	LastSweep float64        `json:"last_sweep"`
	Codes     []int          `json:"codes"`
	FleetRing []xid.Event    `json:"fleet_ring,omitempty"`
	Nodes     []nodeSnapshot `json:"nodes"`
}

type nodeSnapshot struct {
	ID        string       `json:"id"`
	Seq       uint64       `json:"seq"`
	LastSeen  float64      `json:"last_seen"`
	Status    string       `json:"status"`
	Health    string       `json:"health"`
	Recommend string       `json:"recommend,omitempty"`
	Command   string       `json:"command,omitempty"`
	Score     float64      `json:"score"`
	Drains    int          `json:"drains,omitempty"`
	Events    int64        `json:"events"`
	Ring      []xid.Event  `json:"ring,omitempty"`
	Window    []windowSlot `json:"window,omitempty"`
}

// windowSlot is one live bucket of a node's rolling window: the
// absolute simulated hour and the per-code counts in snapshot.Codes
// order.
type windowSlot struct {
	Hour   int64 `json:"hour"`
	Counts []int `json:"counts"`
}

func statusFromString(s string) (int, bool) {
	for st := nodeOnline; st <= nodeRetired; st++ {
		if statusString(st) == s {
			return st, true
		}
	}
	return 0, false
}

func (c *Coordinator) snapshotLocked() *coordSnapshot {
	snap := &coordSnapshot{
		Version:   snapshotVersion,
		SimHours:  c.simHours,
		LastSweep: c.lastSweep,
		Codes:     xid.Codes(),
	}
	// Fleet ring, oldest first.
	start := c.fleetNext - c.fleetLen
	if start < 0 {
		start += len(c.fleetRing)
	}
	for i := 0; i < c.fleetLen; i++ {
		snap.FleetRing = append(snap.FleetRing, c.fleetRing[(start+i)%len(c.fleetRing)])
	}
	snap.Nodes = make([]nodeSnapshot, 0, len(c.nodes))
	for _, n := range c.nodes {
		ns := nodeSnapshot{
			ID:        n.id,
			Seq:       n.seq,
			LastSeen:  n.lastSeen,
			Status:    statusString(n.status),
			Health:    n.health.String(),
			Recommend: n.recommend,
			Command:   n.command,
			Score:     n.score,
			Drains:    n.drains,
			Events:    n.events,
			Ring:      n.recent(),
		}
		for slot := 0; slot < n.win.hours; slot++ {
			if n.win.bucket[slot] < 0 {
				continue
			}
			ns.Window = append(ns.Window, windowSlot{
				Hour:   n.win.bucket[slot],
				Counts: append([]int(nil), n.win.counts[slot]...),
			})
		}
		snap.Nodes = append(snap.Nodes, ns)
	}
	return snap
}

// restoreSnapshot rebuilds coordinator state from a checkpoint. Called
// before the coordinator serves, so it takes the lock itself.
func (c *Coordinator) restoreSnapshot(snap *coordSnapshot) error {
	if snap.Version != snapshotVersion {
		return fmt.Errorf("fleet: snapshot version %d, want %d", snap.Version, snapshotVersion)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.simHours = snap.SimHours
	c.lastSweep = snap.LastSweep
	mFleetSimHours.Set(c.simHours)
	for _, e := range snap.FleetRing {
		c.fleetRing[c.fleetNext] = e
		c.fleetNext = (c.fleetNext + 1) % len(c.fleetRing)
		if c.fleetLen < len(c.fleetRing) {
			c.fleetLen++
		}
	}
	for i := range snap.Nodes {
		ns := &snap.Nodes[i]
		if ns.ID == "" || len(ns.ID) > MaxNodeID {
			return fmt.Errorf("fleet: snapshot node %d: bad id %q", i, ns.ID)
		}
		if _, dup := c.nodes[ns.ID]; dup {
			return fmt.Errorf("fleet: snapshot node %q duplicated", ns.ID)
		}
		status, ok := statusFromString(ns.Status)
		if !ok {
			return fmt.Errorf("fleet: snapshot node %q: unknown status %q", ns.ID, ns.Status)
		}
		health, ok := HealthFromString(ns.Health)
		if !ok {
			return fmt.Errorf("fleet: snapshot node %q: unknown health %q", ns.ID, ns.Health)
		}
		n := &nodeState{
			id:        ns.ID,
			seq:       ns.Seq,
			lastSeen:  ns.LastSeen,
			status:    status,
			health:    health,
			recommend: ns.Recommend,
			command:   ns.Command,
			score:     ns.Score,
			drains:    ns.Drains,
			events:    ns.Events,
			win:       newWindow(coordWindowHours),
			ring:      make([]xid.Event, eventRingSize),
		}
		for _, e := range ns.Ring {
			n.pushEvent(e)
		}
		for _, slot := range ns.Window {
			for col, k := range slot.Counts {
				if k <= 0 || col >= len(snap.Codes) {
					continue
				}
				code := snap.Codes[col]
				if _, known := n.win.index[code]; !known {
					continue // code retired from the taxonomy: drop its counts
				}
				n.win.add(slot.Hour, code, k)
			}
		}
		c.nodes[ns.ID] = n
		c.statusCount[status]++
	}
	for s := range c.statusGauge {
		c.statusGauge[s].Set(float64(c.statusCount[s]))
	}
	return nil
}

// walRecords reads a durable coordinator's pending WAL depth (tests).
func (c *Coordinator) walRecords() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dur == nil {
		return 0
	}
	return c.dur.wal.Records()
}
