// Package fleet is the fleet health plane: per-node gpud-style health
// agents that classify raw soft-error outcomes into Xid-style events
// and rolling health windows, a coordinator that ingests node event
// streams with lease-and-expiry liveness tracking and bounded per-node
// state, and a policy engine that ranks nodes by predicted failure and
// drives drain/retire decisions.
//
// The division of labor mirrors leptonai/gpud: the agent is the
// on-node component (local classification, dedup, health state), the
// coordinator is the control plane (fleet-wide ranking, remediation
// commands), and the wire between them is a strict JSON protocol
// (protocol.go) that rejects unknown fields and trailing data.
package fleet

import "hbm2ecc/internal/fleet/xid"

// Health is a node agent's summary self-assessment.
type Health int

const (
	// Healthy: nothing in the window demands action.
	Healthy Health = iota
	// Degraded: the node should be watched or drained soon.
	Degraded
	// Critical: the node needs remediation now.
	Critical
)

func (h Health) String() string {
	switch h {
	case Healthy:
		return "ok"
	case Degraded:
		return "degraded"
	case Critical:
		return "critical"
	default:
		return "unknown"
	}
}

// HealthFromString parses the wire form of Health.
func HealthFromString(s string) (Health, bool) {
	switch s {
	case "ok":
		return Healthy, true
	case "degraded":
		return Degraded, true
	case "critical":
		return Critical, true
	default:
		return Healthy, false
	}
}

// AgentOptions tunes one node agent.
type AgentOptions struct {
	// DUEBudget is the detected-uncorrectable budget before the agent
	// reports itself Critical and recommends a drain (default 4).
	DUEBudget int
}

// Weak-row retirement: a row is remapped to a spare at its retireAfter-th
// error — the paper's §4 rule that errors in two or more write passes
// mean displacement damage — while any of the node's spareRows spares
// is left. Past them every further error on such a row is an Xid 64.
const (
	retireAfter = 2
	spareRows   = 64
)

// agentWindowHours is the agent's rolling health window in simulated
// hours, bucketed per hour; stormThreshold is the corrected-error count
// in that window that fires an Xid 92 weak-cell-storm event.
const (
	agentWindowHours = 24
	stormThreshold   = 16
)

func (o *AgentOptions) defaults() {
	if o.DUEBudget <= 0 {
		o.DUEBudget = 4
	}
}

// window is a fixed ring of per-hour, per-code counts — the bounded
// rolling state everything else derives from.
type window struct {
	hours  int
	codes  []int
	index  map[int]int // code -> column
	bucket []int64     // current bucket's absolute hour
	counts [][]int     // [hour ring][code]
}

func newWindow(hours int) *window {
	codes := xid.Codes()
	w := &window{
		hours:  hours,
		codes:  codes,
		index:  make(map[int]int, len(codes)),
		bucket: make([]int64, hours),
		counts: make([][]int, hours),
	}
	for i, c := range codes {
		w.index[c] = i
	}
	for i := range w.counts {
		w.bucket[i] = -1
		w.counts[i] = make([]int, len(codes))
	}
	return w
}

// add records n events of code at absolute simulated hour h, expiring
// any ring slot that last held a different hour.
func (w *window) add(h int64, code, n int) {
	slot := int(h % int64(w.hours))
	if h < 0 {
		slot = 0
	}
	if w.bucket[slot] != h {
		w.bucket[slot] = h
		for i := range w.counts[slot] {
			w.counts[slot][i] = 0
		}
	}
	w.counts[slot][w.index[code]] += n
}

// total sums code's events across ring slots still inside the window
// ending at hour h.
func (w *window) total(h int64, code int) int {
	col := w.index[code]
	lo := h - int64(w.hours) + 1
	sum := 0
	for slot := 0; slot < w.hours; slot++ {
		if b := w.bucket[slot]; b >= lo && b <= h {
			sum += w.counts[slot][col]
		}
	}
	return sum
}

// Agent is one node's health component. It consumes raw decode
// outcomes (corrected / DUE / uncontained / crash), maintains the
// rolling window, weak-row retirement, and DUE budget, and emits
// deduplicated Xid events into an outbox the reporting loop drains.
// Agents are not safe for concurrent use; each simulated node owns one.
type Agent struct {
	node string
	opts AgentOptions

	win *window
	// rowErrs counts errors per row; retired holds the rows remapped
	// to spares, whose later errors are ignored.
	rowErrs map[int64]int
	retired map[int64]struct{}
	// dues counts detected-uncorrectable errors against DUEBudget.
	dues   int
	outbox []xid.Event
	// dedup maps DedupKey -> outbox slot for the current reporting
	// interval; cleared on Drain so its size is bounded by the distinct
	// event streams between reports.
	dedup map[string]int
	// stormHour is the last hour a storm event fired (one per hour max).
	stormHour int64
	dead      bool
}

// NewAgent builds a healthy agent for the named node.
func NewAgent(node string, opts AgentOptions) *Agent {
	opts.defaults()
	return &Agent{
		node:    node,
		opts:    opts,
		win:     newWindow(agentWindowHours),
		rowErrs: map[int64]int{},
		retired: map[int64]struct{}{},
		dedup:   map[string]int{},
	}
}

// Node returns the agent's node ID.
func (a *Agent) Node() string { return a.node }

// Dead reports whether the node has fallen off the bus.
func (a *Agent) Dead() bool { return a.dead }

// emit appends an event to the outbox, collapsing into an existing
// same-key event from this reporting interval when possible.
func (a *Agent) emit(e xid.Event) {
	key := e.DedupKey()
	if i, ok := a.dedup[key]; ok {
		// Row-scoped codes carry the row in their key; for the rest a
		// collapsed event spanning several rows reports Row -1.
		if a.outbox[i].Row != e.Row {
			a.outbox[i].Row = -1
		}
		a.outbox[i].Count = a.outbox[i].N() + e.N()
		return
	}
	a.dedup[key] = len(a.outbox)
	a.outbox = append(a.outbox, e)
}

// ObserveCorrected records a corrected (DCE) error on row at simulated
// time at: an Xid 94 event, row-retirement accounting (which may
// cascade into Xid 63 remap or Xid 64 spare-exhaustion events), and
// storm detection over the rolling window.
func (a *Agent) ObserveCorrected(at float64, row int64) {
	if a.dead {
		return
	}
	h := int64(at)
	a.win.add(h, xid.ContainedECC, 1)
	a.emit(xid.Event{Node: a.node, Code: xid.ContainedECC, AtHours: at, Row: row})
	a.recordRowError(at, row)

	if a.win.total(h, xid.ContainedECC) >= stormThreshold && a.stormHour != h {
		a.stormHour = h
		a.win.add(h, xid.HighSBERate, 1)
		a.emit(xid.Event{Node: a.node, Code: xid.HighSBERate, AtHours: at, Row: -1})
	}
}

// ObserveDUE records a detected-uncorrectable error: Xid 48 when the
// driver contained it, Xid 95 when it escaped containment. Either way
// it spends DUE budget and counts against the erroring row.
func (a *Agent) ObserveDUE(at float64, row int64, uncontained bool) {
	if a.dead {
		return
	}
	h := int64(at)
	code := xid.DoubleBitECC
	if uncontained {
		code = xid.UncontainedECC
	}
	a.win.add(h, code, 1)
	a.emit(xid.Event{Node: a.node, Code: code, AtHours: at, Row: row})
	a.dues++
	a.recordRowError(at, row)
}

// recordRowError counts one error on row: at its retireAfter-th error
// the row is remapped to a spare (Xid 63), or, with every spare used,
// the remap fails (Xid 64). Errors on retired rows are ignored (the
// spare row is pristine).
func (a *Agent) recordRowError(at float64, row int64) {
	if _, ok := a.retired[row]; ok {
		return
	}
	a.rowErrs[row]++
	if a.rowErrs[row] < retireAfter {
		return
	}
	code := xid.RowRemapFailure
	if len(a.retired) < spareRows {
		code = xid.RowRemapRecorded
		a.retired[row] = struct{}{}
	}
	a.win.add(int64(at), code, 1)
	a.emit(xid.Event{Node: a.node, Code: code, AtHours: at, Row: row})
}

// ObserveCrash records the node falling off the bus (Xid 79). The
// agent goes silent afterwards; the coordinator notices via lease
// expiry if this final report never arrives. Undrained events stamped
// after at came from hardware that was already off the bus: they are
// dropped, so the final report carries nothing later than the crash.
func (a *Agent) ObserveCrash(at float64) {
	if a.dead {
		return
	}
	a.dead = true
	kept := a.outbox[:0]
	clear(a.dedup)
	for _, e := range a.outbox {
		if e.AtHours <= at {
			a.dedup[e.DedupKey()] = len(kept)
			kept = append(kept, e)
		}
	}
	a.outbox = kept
	a.win.add(int64(at), xid.OffTheBus, 1)
	a.emit(xid.Event{Node: a.node, Code: xid.OffTheBus, AtHours: at, Row: -1})
}

// Pending returns the number of undrained outbox events.
func (a *Agent) Pending() int { return len(a.outbox) }

// Drain takes the outbox (ownership transfers to the caller) and
// resets interval dedup state.
func (a *Agent) Drain() []xid.Event {
	out := a.outbox
	a.outbox = nil
	clear(a.dedup)
	return out
}

// Health summarizes the agent's state at simulated time at, and the
// strongest remediation the window suggests. The rules compose the
// taxonomy's per-code remediations with the agent's budgets:
//
//   - dead, spare exhaustion, or uncontained errors => Critical
//   - DUE budget spent => Critical (drain)
//   - any DUE, a storm, or remap activity in the window => Degraded
func (a *Agent) Health(at float64) (Health, xid.Remediation) {
	h := int64(at)
	switch {
	case a.dead:
		return Critical, xid.RemedRetire
	case a.win.total(h, xid.RowRemapFailure) > 0:
		return Critical, xid.RemedRetire
	case a.win.total(h, xid.UncontainedECC) > 0:
		return Critical, xid.RemedDrain
	case a.dues >= a.opts.DUEBudget:
		return Critical, xid.RemedDrain
	case a.win.total(h, xid.DoubleBitECC) > 0:
		return Degraded, xid.RemedReset
	case a.win.total(h, xid.HighSBERate) > 0:
		return Degraded, xid.RemedMonitor
	case a.win.total(h, xid.RowRemapRecorded) > 0:
		return Degraded, xid.RemedMonitor
	default:
		return Healthy, xid.RemedNone
	}
}

// WindowCount exposes the rolling window total for one code at time
// at — the agent-side view tests assert against.
func (a *Agent) WindowCount(at float64, code int) int {
	return a.win.total(int64(at), code)
}
