// Package fleet is the fleet health plane: per-node gpud-style health
// agents that classify raw soft-error outcomes into Xid-style events
// and rolling health windows, a coordinator that ingests node event
// streams with lease-and-expiry liveness tracking and bounded per-node
// state, and a policy engine that ranks nodes by predicted failure and
// drives drain/retire decisions.
//
// The division of labor mirrors leptonai/gpud: the agent is the
// on-node component (local classification, dedup, health state) and
// the coordinator is the control plane (fleet-wide ranking, remediation
// commands). Agents hand the coordinator report frames in-process
// (protocol.go), which it validates before they touch any state.
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

// codes is the taxonomy in ascending order; a code's index in it is its
// column in every window and in the policy's weights.
var codes = xid.Codes()

// columns maps a taxonomy code to its column and any other code to -1.
var columns = func() []int {
	t := make([]int, codes[len(codes)-1]+1)
	for i := range t {
		t[i] = -1
	}
	for col, code := range codes {
		t[code] = col
	}
	return t
}()

// column returns code's column, or -1 for a code outside the taxonomy.
func column(code int) int {
	if code < 0 || code >= len(columns) {
		return -1
	}
	return columns[code]
}

// window is a fixed ring of per-hour, per-code counts — the bounded
// rolling state everything else derives from — plus every code's
// running sum over the window ending at a reference hour. add keeps the
// sums current; a query at another hour moves the reference there and
// rescans the ring only on a jump of a whole window or more. A shorter
// move walks the ring one slot per hour moved: the hour entering the
// window and the hour leaving it share a slot, so a step reads that
// slot's bucket and adds or subtracts its row only if it holds one of
// the two. A quiet window, whose newest add lies a whole window or more
// behind the reference hour, moves forward in one step: its sums are
// zero and stay zero. A query thus costs one bucket compare per
// simulated hour moved plus O(codes) per hour moved that holds events,
// and nothing allocates after newWindow.
type window struct {
	hours  int
	bucket []int64 // absolute hour each ring slot holds
	counts []int   // [slot*len(codes) + column]
	ref    int64   // the sums' reference hour
	sums   []int   // per column: events in hours (ref-hours, ref]
	newest int64   // the newest hour any add touched (-1 before any)
}

func newWindow(hours int) *window {
	w := &window{
		hours:  hours,
		bucket: make([]int64, hours),
		counts: make([]int, hours*len(codes)),
		sums:   make([]int, len(codes)),
		newest: -1,
	}
	for i := range w.bucket {
		w.bucket[i] = -1
	}
	return w
}

// slot is hour h's ring slot; a negative hour lands in slot 0.
func (w *window) slot(h int64) int {
	if h < 0 {
		return 0
	}
	return int(h % int64(w.hours))
}

// row returns ring slot s's per-column counts.
func (w *window) row(s int) []int {
	n := len(codes)
	return w.counts[s*n : (s+1)*n]
}

// shift adds sign times ring slot s's counts to the sums.
func (w *window) shift(s, sign int) {
	for c, k := range w.row(s) {
		w.sums[c] += sign * k
	}
}

// covers reports whether hour b lies in the window ending at the
// reference hour.
func (w *window) covers(b int64) bool {
	return b <= w.ref && b > w.ref-int64(w.hours)
}

// add records n events of code at absolute simulated hour h, expiring
// the ring slot h maps to if it last held any other hour, even a newer
// one. A code outside the taxonomy is not recorded.
func (w *window) add(h int64, code, n int) {
	col := column(code)
	if col < 0 {
		return
	}
	s := w.slot(h)
	row := w.row(s)
	if w.bucket[s] != h {
		if w.covers(w.bucket[s]) {
			w.shift(s, -1)
		}
		clear(row)
		w.bucket[s] = h
	}
	row[col] += n
	if w.covers(h) {
		w.sums[col] += n
	}
	w.newest = max(w.newest, h)
}

// quiet reports whether no hour the ring holds can enter a window
// ending at or after the reference hour. A backward move is never
// quiet: it can re-enter an old event.
func (w *window) quiet() bool {
	// ref-newest is negative only on overflow, which is not quiet.
	return w.newest < w.ref && w.ref-w.newest >= int64(w.hours)
}

// at moves the reference hour to h and returns every column's total
// over the window ending there. The slice is the window's own: callers
// read it before the next add or at.
func (w *window) at(h int64) []int {
	hours := int64(w.hours)
	// The h-vs-ref comparisons guard the difference against overflow.
	switch d := h - w.ref; {
	case d == 0:
	case h > w.ref && w.quiet():
		w.ref = h
	case h > w.ref && d > 0 && d < hours, h < w.ref && d < 0 && d > -hours:
		w.walk(h)
	default:
		w.ref = h
		clear(w.sums)
		for s, b := range w.bucket {
			if w.covers(b) {
				w.shift(s, 1)
			}
		}
	}
	return w.sums
}

// walk moves the reference hour to h, less than a window away, one
// hour per step. Each step pairs an hour x with the hour x-hours a whole
// window earlier: forward, x enters the window and x-hours leaves it;
// back, x leaves it and x-hours re-enters. Both hours share x's ring
// slot, so a step reads that one slot, adds or subtracts its row if it
// holds either hour, and moves to the next slot by increment and wrap.
// Only negative hours break the pairing: they all live in slot 0, so
// while x lies in (0, hours) the hour x-hours is looked for there.
func (w *window) walk(h int64) {
	hours := int64(w.hours)
	x, n, dir := w.ref+1, h-w.ref, 1
	if h < w.ref {
		x, n, dir = w.ref, w.ref-h, -1
	}
	s := w.slot(x)
	for ; n > 0; n-- {
		switch w.bucket[s] {
		case x:
			w.shift(s, dir)
		case x - hours:
			w.shift(s, -dir)
		}
		if x < hours && x > 0 && w.bucket[0] == x-hours {
			w.shift(0, -dir)
		}
		x += int64(dir)
		switch {
		case x <= 0:
			s = 0
		case dir > 0:
			if s++; s == w.hours {
				s = 0
			}
		default:
			if s == 0 {
				s = w.hours
			}
			s--
		}
	}
	w.ref = h
}

// total sums code's events across ring slots still inside the window
// ending at hour h; a code outside the taxonomy has none.
func (w *window) total(h int64, code int) int {
	col := column(code)
	if col < 0 {
		return 0
	}
	return w.at(h)[col]
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
	// interval; Drain deletes the drained keys, so its size is bounded
	// by the distinct event streams between reports. A scan of the
	// outbox would do for fleetd's few streams, but a flooded device's
	// interval holds hundreds (Xid 64 is row-scoped): obsd -mtte 0.002
	// reaches 232.
	dedup map[xid.Key]int
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
		dedup:   map[xid.Key]int{},
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

// Drain takes the outbox (ownership transfers to the caller) and
// resets interval dedup state. The map holds exactly the drained
// events' keys, so deleting them costs what the interval emitted, not
// what the map once grew to.
func (a *Agent) Drain() []xid.Event {
	out := a.outbox
	a.outbox = nil
	for _, e := range out {
		delete(a.dedup, e.DedupKey())
	}
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
	if a.dead {
		return Critical, xid.RemedRetire
	}
	n := a.win.at(int64(at))
	switch {
	case n[column(xid.RowRemapFailure)] > 0:
		return Critical, xid.RemedRetire
	case n[column(xid.UncontainedECC)] > 0:
		return Critical, xid.RemedDrain
	case a.dues >= a.opts.DUEBudget:
		return Critical, xid.RemedDrain
	case n[column(xid.DoubleBitECC)] > 0:
		return Degraded, xid.RemedReset
	case n[column(xid.HighSBERate)] > 0:
		return Degraded, xid.RemedMonitor
	case n[column(xid.RowRemapRecorded)] > 0:
		return Degraded, xid.RemedMonitor
	default:
		return Healthy, xid.RemedNone
	}
}

// WindowCount exposes the rolling window total for one code at time
// at — the agent-side view tests assert against. A code outside the
// taxonomy counts 0.
func (a *Agent) WindowCount(at float64, code int) int {
	return a.win.total(int64(at), code)
}
