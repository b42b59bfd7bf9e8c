package workload

import (
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"

	"hbm2ecc/internal/bitvec"
	"hbm2ecc/internal/core"
	"hbm2ecc/internal/dram"
	"hbm2ecc/internal/ecc"
	"hbm2ecc/internal/faults"
	"hbm2ecc/internal/gpusim"
	"hbm2ecc/internal/hbm2"
)

// deviceMemory is the reference Memory FuzzMemoryVsDevice checks against:
// the same backing store, op counter, strike and poison rules, but every
// load decodes the device's wire (Scheme.Decode(Dev.ReadWire(...)), or
// its raw data with ECC off) and every store rewrites the entry.
type deviceMemory struct {
	gpu  *gpusim.GPU
	data [][hbm2.EntryBytes]byte
	ops  int64
	dram []dramInjection

	poisonOp    int64
	poisonBit   int
	poisonArmed bool
	due         bool
}

func newDeviceMemory(sch core.Scheme) *deviceMemory {
	d := &deviceMemory{gpu: gpusim.New(workloadConfig, sch)}
	d.gpu.WritePattern(func(idx int64) [hbm2.EntryBytes]byte {
		if idx >= 0 && idx < int64(len(d.data)) {
			return d.data[idx]
		}
		return [hbm2.EntryBytes]byte{}
	})
	return d
}

func (d *deviceMemory) step() {
	armed := d.dram[:0]
	for _, inj := range d.dram {
		if inj.Op > d.ops {
			armed = append(armed, inj)
			continue
		}
		for _, eff := range inj.Ev.Effects {
			d.gpu.Dev.InjectCorruption(eff.Entry, eff.Corr)
		}
	}
	d.dram = armed
	d.ops++
	d.gpu.Advance(opCost)
}

func (d *deviceMemory) load(t Tensor, i int) int32 {
	if d.due {
		return 0
	}
	d.step()
	entry := t.base + int64(i/wordsPerEntry)
	wire := d.gpu.Dev.ReadWire(entry, d.gpu.Clock())
	var data [hbm2.EntryBytes]byte
	if s := d.gpu.Scheme; s == nil {
		data, _ = wire.DataECC()
	} else {
		res := s.Decode(wire)
		if res.Status == ecc.Detected {
			d.due = true
			return 0
		}
		data = res.Data
	}
	v := int32(binary.LittleEndian.Uint32(data[(i%wordsPerEntry)*4:]))
	if d.poisonArmed && d.ops > d.poisonOp {
		v ^= 1 << uint(d.poisonBit)
		d.poisonArmed = false
	}
	return v
}

func (d *deviceMemory) store(t Tensor, i int, v int32) {
	if d.due {
		return
	}
	d.step()
	entry := t.base + int64(i/wordsPerEntry)
	binary.LittleEndian.PutUint32(d.data[entry][(i%wordsPerEntry)*4:], uint32(v))
	d.gpu.WriteEntry(entry)
}

var fuzzSchemes = sync.OnceValue(allSchemes)

// FuzzMemoryVsDevice checks Memory, whose loads of unstruck entries skip
// the device and whose struck entries decode once per strike, against
// deviceMemory, which reads every load through the device and its
// codec. A fuzzed op sequence allocates tensors, stores, loads, arms
// DRAM events (XOR bits, whole-byte flips and stuck-at bits, several
// effects per event so effects merge on one entry, and strikes on
// entries already struck) and cache poison, and resets the Memory for
// another run. Every load must return the same value on both sides, and
// both must agree on the op count and the DUE, for every registered
// scheme and ECC off.
func FuzzMemoryVsDevice(f *testing.F) {
	off := uint8(len(fuzzSchemes()) - 1)
	// Store after a loaded strike, then load again.
	f.Add(off, int64(1), []byte{0, 7, 1, 0, 0, 3, 0, 0, 0, 0, 0, 0, 5, 2, 0, 0, 1, 0, 0, 2, 0, 0})
	// A second strike on a loaded entry cancels the first.
	f.Add(off, int64(2), []byte{0, 7, 1, 0, 0, 3, 0, 0, 0, 0, 0, 0, 5, 2, 0, 0, 3, 0, 0, 0, 0, 0, 0, 5, 2, 0, 0})
	// A correctable strike turned uncorrectable by a second one.
	f.Add(uint8(0), int64(3), []byte{0, 15, 1, 0, 9, 3, 0, 0, 1, 0, 0, 0, 80, 2, 0, 1, 2, 0, 9, 3, 0, 0, 1, 1, 30, 2, 0, 9, 2, 0, 2})
	// Merged effects: a byte flip and stuck-at bits on one entry.
	f.Add(uint8(1), int64(4), []byte{0, 23, 1, 0, 4, 1, 0, 12, 3, 1, 1, 0, 1, 2, 1, 2, 0, 2, 1, 1, 44, 0, 2, 0, 4, 2, 0, 12, 2, 0, 20, 1, 0, 12, 2, 0, 12})
	// Poison, a DUE, then a reset and a second run.
	f.Add(uint8(2), int64(5), []byte{0, 7, 1, 0, 1, 4, 0, 9, 2, 0, 1, 3, 0, 0, 0, 1, 3, 2, 0, 2, 5, 0, 3, 1, 0, 2, 0, 3, 3, 1, 0, 2, 0, 7})
	f.Add(uint8(3), int64(6), []byte{0, 30, 0, 9, 1, 1, 20, 3, 2, 2, 4, 2, 2, 0, 9, 1, 3, 3, 2, 1, 1, 1, 40, 5, 5, 0, 3, 1, 0, 2, 0, 2, 1, 1, 20})
	f.Add(off, int64(7), []byte{0, 40, 3, 1, 0, 4, 2, 0, 5, 0, 1, 0, 4, 1, 0, 2, 1, 0, 2, 0, 2, 2, 0, 3, 1, 0, 2, 0, 4})
	f.Fuzz(func(t *testing.T, scheme uint8, seed int64, ops []byte) {
		if len(ops) > 96 {
			ops = ops[:96] // keeps an exec, and so minimization, short
		}
		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return int(b)
		}
		schemes := fuzzSchemes()
		sch := schemes[int(scheme)%len(schemes)]
		rng := rand.New(rand.NewSource(seed))
		m, ref := freshMemory(sch), newDeviceMemory(sch)
		var tensors []Tensor
		pick := func() (Tensor, int) {
			tt := tensors[next()%len(tensors)]
			return tt, next() % tt.Len()
		}
		for op := 0; len(ops) > 0; op++ {
			switch next() % 6 {
			case 0:
				n := 1 + next()%24
				tt := m.Alloc(n)
				ref.data = append(ref.data, make([][hbm2.EntryBytes]byte, (n+wordsPerEntry-1)/wordsPerEntry)...)
				tensors = append(tensors, tt)
			case 1:
				if len(tensors) == 0 {
					continue
				}
				tt, i := pick()
				v := int32(rng.Uint32())
				m.Store(tt, i, v)
				ref.store(tt, i, v)
			case 2:
				if len(tensors) == 0 {
					continue
				}
				tt, i := pick()
				if got, want := m.Load(tt, i), ref.load(tt, i); got != want {
					t.Fatalf("%s, op %d: load of word %d at entry %d = %#x, device read %#x",
						schemeName(sch), op, i, tt.base+int64(i/wordsPerEntry), got, want)
				}
			case 3:
				if len(ref.data) == 0 {
					continue
				}
				at := m.Ops() + int64(next()%3)
				ev := fuzzMemoryEvent(next, int64(len(ref.data)))
				m.ScheduleDRAM(at, ev)
				ref.dram = append(ref.dram, dramInjection{Op: at, Ev: ev})
			case 4:
				at, bit := m.Ops()+int64(next()%3), next()
				m.SchedulePoison(at, bit)
				ref.poisonOp, ref.poisonBit, ref.poisonArmed = at, bit&31, true
			case 5:
				m.reset()
				ref, tensors = newDeviceMemory(sch), nil
			}
			if m.Ops() != ref.ops || m.Failed() != ref.due {
				t.Fatalf("%s, op %d: Memory at op %d (due %v), device at op %d (due %v)",
					schemeName(sch), op, m.Ops(), m.Failed(), ref.ops, ref.due)
			}
		}
	})
}

// fuzzMemoryEvent builds a DRAM event of 1..3 effects on entries below
// arena, each an XOR of 1..4 bits, a whole-byte flip or 1..4 stuck-at
// bits, from the bytes next yields.
func fuzzMemoryEvent(next func() int, arena int64) faults.Event {
	var ev faults.Event
	for n := 1 + next()%3; n > 0; n-- {
		e := int64(next()) % arena
		var c dram.Corruption
		switch next() % 3 {
		case 0:
			for b := 1 + next()%4; b > 0; b-- {
				c.Xor = c.Xor.FlipBit((next()<<8 | next()) % bitvec.EntryBits)
			}
		case 1:
			base := bitvec.ByteBase(next() % bitvec.EntryAlignedBytes)
			for k := 0; k < 8; k++ {
				c.Xor = c.Xor.FlipBit(base + k)
			}
		case 2:
			for b := 1 + next()%4; b > 0; b-- {
				bit := (next()<<8 | next()) % bitvec.EntryBits
				c.SetMask = c.SetMask.SetBit(bit, 1)
				c.SetVal = c.SetVal.SetBit(bit, uint(next()&1))
			}
		}
		ev.Effects = append(ev.Effects, faults.EntryEffect{Entry: e, Corr: c})
	}
	return ev
}
