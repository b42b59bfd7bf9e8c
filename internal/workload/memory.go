package workload

import (
	"encoding/binary"

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
// at their scheduled op index. Loads go through the GPU's ECC-protected
// read path; a Detected decode kills the run (due). A load of an entry
// the device holds no fault for returns the backing store's payload
// without the codec (gpusim.GPU.Read), which is exact while the GPU's
// device encodes with its scheme. Not safe for concurrent use — each
// run owns one.
type Memory struct {
	gpu  *gpusim.GPU
	data [][hbm2.EntryBytes]byte
	next int64
	ops  int64
	// trace, when non-nil, records every load and store (the dry run's
	// access trace).
	trace *trace

	dram []dramInjection
	// poisonOp/poisonBit arm a cache-style silent corruption: the first
	// load at or after poisonOp returns its value with poisonBit
	// flipped — after ECC decode, invisible to any DRAM scheme.
	poisonOp    int64
	poisonBit   int
	poisonArmed bool

	due bool
}

// NewMemory wraps a GPU. The backing store starts empty; Alloc grows it.
func NewMemory(gpu *gpusim.GPU) *Memory {
	m := &Memory{gpu: gpu, poisonOp: -1}
	gpu.WritePattern(func(idx int64) [hbm2.EntryBytes]byte {
		if idx >= 0 && idx < int64(len(m.data)) {
			return m.data[idx]
		}
		return [hbm2.EntryBytes]byte{}
	})
	return m
}

// Alloc reserves a tensor of n int32 words (entry-granular underneath).
func (m *Memory) Alloc(n int) Tensor {
	entries := (n + wordsPerEntry - 1) / wordsPerEntry
	t := Tensor{base: m.next, n: n}
	m.next += int64(entries)
	m.data = append(m.data, make([][hbm2.EntryBytes]byte, entries)...)
	return t
}

// Ops returns the memory operations issued so far.
func (m *Memory) Ops() int64 { return m.ops }

// Failed reports whether a read raised a detected-uncorrectable error
// (the job is dead; subsequent accesses are no-ops).
func (m *Memory) Failed() bool { return m.due }

// ScheduleDRAM arms a DRAM fault event to strike when the op counter
// reaches op (before that operation executes).
func (m *Memory) ScheduleDRAM(op int64, ev faults.Event) {
	m.dram = append(m.dram, dramInjection{Op: op, Ev: ev})
}

// SchedulePoison arms a cache-style silent corruption: the first load at
// or after op returns its value with bit (0..31) flipped.
func (m *Memory) SchedulePoison(op int64, bit int) {
	m.poisonOp, m.poisonBit, m.poisonArmed = op, bit&31, true
}

// step fires due fault events, then accounts one memory operation.
func (m *Memory) step() {
	for i := 0; i < len(m.dram); {
		if m.dram[i].Op > m.ops {
			i++
			continue
		}
		for _, eff := range m.dram[i].Ev.Effects {
			m.gpu.Dev.InjectCorruption(eff.Entry, eff.Corr)
		}
		m.dram = append(m.dram[:i], m.dram[i+1:]...)
	}
	m.ops++
	m.gpu.Advance(opCost)
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
	r := m.gpu.Read(entry)
	if r.Status == ecc.Detected {
		m.due = true
		return 0
	}
	v := int32(binary.LittleEndian.Uint32(r.Data[(i%wordsPerEntry)*4:]))
	if m.poisonArmed && m.ops > m.poisonOp {
		v ^= 1 << uint(m.poisonBit)
		m.poisonArmed = false
	}
	return v
}

// Store writes one int32 word: the backing store is updated and the
// device clears the entry's soft-error corruption (charge replaced).
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
	m.gpu.WriteEntry(entry)
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
