package workload

import (
	"encoding/binary"
	"math"
	"slices"

	"hbm2ecc/internal/ecc"
	"hbm2ecc/internal/faults"
	"hbm2ecc/internal/gpusim"
	"hbm2ecc/internal/hbm2"
)

// wordsPerEntry is how many int32 kernel words one 32B memory entry
// holds (the 4B ECC area is not data-visible).
const wordsPerEntry = hbm2.EntryBytes / 4

// opCost is the simulated seconds one memory operation advances the GPU
// clock — enough that a run occupies a nonzero time window without ever
// crossing a refresh period.
const opCost = 10e-9

// Tensor is a device-memory allocation of int32 words.
type Tensor struct {
	base int64 // first entry
	n    int   // words
}

// Len returns the tensor's word count.
func (t Tensor) Len() int { return t.n }

// dramInjection is a DRAM fault event armed to strike when the op
// counter reaches Op.
type dramInjection struct {
	Op int64
	Ev faults.Event
}

// Memory is the kernel-visible device memory: a bump allocator over a
// gpusim GPU, a mutable backing store the device's pattern function
// reads through, an op counter that gives every load and store a
// position on the run's timeline, and the armed fault events that fire
// at their scheduled op index. A Detected read kills the run (due). Not
// safe for concurrent use — each run owns one at a time.
//
// Memory is its GPU's only mutator: it injects every strike (in step)
// and rewrites every entry (in Store). So it knows which entries
// deviate from the backing store: an entry is struck from the first
// strike on it until the next Store to it. A load of an unstruck entry
// reads the backing store without calling the device, which is exact
// while the GPU's device encodes with its scheme and has no weak cells
// and no on-die stage: its wire is then the clean codeword of the
// payload, which decodes to the payload with status OK. The first load
// of a struck entry reads it through the GPU's ECC-protected path
// (gpusim.GPU.Read) and keeps the data and status in the entry's view.
// Until the next Store to the entry or the next strike on it, every
// read of it returns that same view: the payload and the corruption are
// unchanged, and the clock only matters for weak cells.
type Memory struct {
	gpu  *gpusim.GPU
	data [][hbm2.EntryBytes]byte
	next int64
	ops  int64
	// trace, when non-nil, records every load and store (the dry run's
	// access trace).
	trace *trace

	// struck[e] is set while entry e holds corruption no Store has
	// replaced; views[e] is its read once loaded (valid). A strike
	// invalidates the view, and only a struck entry's view is read.
	struck []bool
	views  []view

	dram []dramInjection
	// nextStrike is the smallest op an armed DRAM event strikes at
	// (math.MaxInt64 when none is armed).
	nextStrike int64
	// poisonOp/poisonBit arm a cache-style silent corruption: the first
	// load at or after poisonOp returns its value with poisonBit
	// flipped — after ECC decode, invisible to any DRAM scheme.
	poisonOp    int64
	poisonBit   int
	poisonArmed bool

	due bool
}

// view is one struck entry's read through the ECC-protected path.
type view struct {
	data   [hbm2.EntryBytes]byte
	status ecc.Status
	valid  bool
}

// NewMemory wraps a GPU. The backing store starts empty; Alloc grows it.
func NewMemory(gpu *gpusim.GPU) *Memory {
	m := &Memory{gpu: gpu, poisonOp: -1, nextStrike: math.MaxInt64}
	gpu.WritePattern(func(idx int64) [hbm2.EntryBytes]byte {
		if idx >= 0 && idx < int64(len(m.data)) {
			return m.data[idx]
		}
		return [hbm2.EntryBytes]byte{}
	})
	return m
}

// reset empties m for another run on the same GPU, as NewMemory would
// leave it, keeping its slices' capacity. Only struck entries hold
// device corruption, and rewriting them clears it. The GPU clock runs
// on, which only weak cells would notice.
func (m *Memory) reset() {
	for e, s := range m.struck {
		if s {
			m.gpu.WriteEntry(int64(e))
		}
	}
	*m = Memory{gpu: m.gpu, data: m.data[:0], struck: m.struck[:0], views: m.views[:0],
		dram: m.dram[:0], nextStrike: math.MaxInt64, poisonOp: -1}
}

// Alloc reserves a tensor of n int32 words (entry-granular underneath).
func (m *Memory) Alloc(n int) Tensor {
	entries := (n + wordsPerEntry - 1) / wordsPerEntry
	t := Tensor{base: m.next, n: n}
	m.next += int64(entries)
	m.data = grow(m.data, entries)
	m.struck = grow(m.struck, entries)
	m.views = grow(m.views, entries)
	return t
}

// grow extends s by n zeroed elements, reusing its capacity.
func grow[T any](s []T, n int) []T {
	s = slices.Grow(s, n)
	s = s[:len(s)+n]
	clear(s[len(s)-n:])
	return s
}

// Ops returns the memory operations issued so far.
func (m *Memory) Ops() int64 { return m.ops }

// Failed reports whether a read raised a detected-uncorrectable error
// (the job is dead; subsequent accesses are no-ops).
func (m *Memory) Failed() bool { return m.due }

// ScheduleDRAM arms a DRAM fault event to strike when the op counter
// reaches op (before that operation executes). An effect on an entry
// outside the arena allocated when it strikes is dropped: no load could
// read it before an Alloc covered it, and kernels allocate their whole
// arena before their first access.
func (m *Memory) ScheduleDRAM(op int64, ev faults.Event) {
	m.dram = append(m.dram, dramInjection{Op: op, Ev: ev})
	m.nextStrike = min(m.nextStrike, op)
}

// SchedulePoison arms a cache-style silent corruption: the first load at
// or after op returns its value with bit (0..31) flipped.
func (m *Memory) SchedulePoison(op int64, bit int) {
	m.poisonOp, m.poisonBit, m.poisonArmed = op, bit&31, true
}

// step fires due fault events, then accounts one memory operation.
func (m *Memory) step() {
	if m.ops >= m.nextStrike {
		m.strike()
	}
	m.ops++
	m.gpu.Advance(opCost)
}

// strike fires, in scheduling order, every armed event due at the
// current op, marks the entries it corrupts struck and invalidates
// their views.
func (m *Memory) strike() {
	m.nextStrike = math.MaxInt64
	armed := m.dram[:0]
	for _, inj := range m.dram {
		if inj.Op > m.ops {
			armed = append(armed, inj)
			m.nextStrike = min(m.nextStrike, inj.Op)
			continue
		}
		for _, eff := range inj.Ev.Effects {
			if eff.Entry < 0 || eff.Entry >= int64(len(m.struck)) {
				continue
			}
			m.gpu.Dev.InjectCorruption(eff.Entry, eff.Corr)
			m.struck[eff.Entry] = true
			m.views[eff.Entry].valid = false
		}
	}
	m.dram = armed
}

// Load reads one int32 word through the ECC-protected read path.
func (m *Memory) Load(t Tensor, i int) int32 {
	if m.due {
		return 0
	}
	m.step()
	entry := t.base + int64(i/wordsPerEntry)
	if m.trace != nil {
		m.trace.record(m.ops-1, entry, m.next, false)
	}
	data := &m.data[entry]
	if m.struck[entry] {
		vw := &m.views[entry]
		if !vw.valid {
			r := m.gpu.Read(entry)
			*vw = view{data: r.Data, status: r.Status, valid: true}
		}
		if vw.status == ecc.Detected {
			m.due = true
			return 0
		}
		data = &vw.data
	}
	v := int32(binary.LittleEndian.Uint32(data[(i%wordsPerEntry)*4:]))
	if m.poisonArmed && m.ops > m.poisonOp {
		v ^= 1 << uint(m.poisonBit)
		m.poisonArmed = false
	}
	return v
}

// Store writes one int32 word: the backing store is updated, and a
// struck entry's device corruption is cleared (charge replaced).
func (m *Memory) Store(t Tensor, i int, v int32) {
	if m.due {
		return
	}
	m.step()
	entry := t.base + int64(i/wordsPerEntry)
	if m.trace != nil {
		m.trace.record(m.ops-1, entry, m.next, true)
	}
	binary.LittleEndian.PutUint32(m.data[entry][(i%wordsPerEntry)*4:], uint32(v))
	if m.struck[entry] {
		m.struck[entry] = false
		m.gpu.WriteEntry(entry)
	}
}

// ReadOut reads a whole tensor back through the protected path (the
// result transfer of a real job — it can raise the run's DUE too).
func (m *Memory) ReadOut(t Tensor) []int32 {
	out := make([]int32, t.n)
	for i := range out {
		out[i] = m.Load(t, i)
		if m.due {
			return nil
		}
	}
	return out
}
