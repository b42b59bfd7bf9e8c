package workload

import (
	"slices"

	"hbm2ecc/internal/bitvec"
	"hbm2ecc/internal/core"
	"hbm2ecc/internal/dram"
	"hbm2ecc/internal/ecc"
	"hbm2ecc/internal/faults"
	"hbm2ecc/internal/gpusim"
	"hbm2ecc/internal/hbm2"
)

// trace is a kernel's memory-access trace, recorded once per cell by
// the dry run. Kernels are data-oblivious, so every run of the cell
// issues the same loads and stores in the same order.
type trace struct {
	// ops is the kernel's op count, the length of the injection
	// timeline.
	ops int64
	// arena is the number of entries allocated at the kernel's first
	// load or store. Kernels allocate every tensor before their first
	// access, so it is also the arena a strike at any op lands in.
	arena int64
	// byEntry[e] lists entry e's accesses in op order, each packed as
	// op<<1 with the low bit set for a store.
	byEntry [][]int64
}

// record appends the access of op to entry; arena is the allocator's
// size at that op.
func (t *trace) record(op, entry, arena int64, store bool) {
	if op == 0 {
		t.arena = arena
		t.byEntry = make([][]int64, arena)
	}
	// A kernel that allocates after op 0 grows the arena here; dryRun
	// then refuses it.
	for int64(len(t.byEntry)) <= entry {
		t.byEntry = append(t.byEntry, nil)
	}
	a := op << 1
	if store {
		a |= 1
	}
	t.byEntry[entry] = append(t.byEntry[entry], a)
}

// firstLoad reports whether entry e's first access at or after op is a
// load.
func (t *trace) firstLoad(e, op int64) bool {
	acc := t.byEntry[e]
	i, _ := slices.BinarySearch(acc, op<<1)
	return i < len(acc) && acc[i]&1 == 0
}

// decider settles a cell's DRAM-sourced runs from the cell's trace,
// without executing the kernel, whenever the event's corruption alone
// fixes the outcome.
//
// Only a load of a corrupted entry can let a DRAM event reach the
// kernel, and only its first access at or after the strike op matters:
// a store replaces the entry's charge, and every load before that store
// reads the same corrupted image (no weak cells, no on-die stage, and
// reads change nothing). For XOR corruption under the schemes' linear
// codes, that read decodes to the same status and data error whatever
// the payload (core's TestDecodePayloadInvariance), so decoding
// Encode(0)^Xor once stands in for every run's load. A Detected load
// makes the run a DUE wherever it falls, since the trace reaches it
// unless an earlier Detected load ends the run first. A run whose loads
// all return the written data is Masked. Anything else — a stuck-at
// (SetMask) corruption, a miscorrection, an undetected error, or a data
// error with ECC off — needs the kernel's arithmetic and is left to the
// full simulation.
type decider struct {
	sch   core.Scheme
	tr    *trace
	clean bitvec.V288 // the wire image of an all-zero payload (zero with ECC off)

	// Per-run scratch: the event's corruption merged per entry, whether
	// an entry is in hit, and the entries the event touched; the
	// injector each DRAM-sourced run reseeds to draw its event; and the
	// memory every run the trace leaves open executes on.
	corr []dram.Corruption
	seen []bool
	hit  []int64
	inj  *faults.Injector
	mem  *Memory
}

func newDecider(sch core.Scheme, tr *trace) *decider {
	d := &decider{sch: sch, tr: tr,
		corr: make([]dram.Corruption, tr.arena), seen: make([]bool, tr.arena),
		inj: faults.NewInjector(workloadConfig, 0), mem: NewMemory(gpusim.New(workloadConfig, sch))}
	if sch != nil {
		d.clean = sch.Encode([hbm2.EntryBytes]byte{})
	}
	return d
}

// decide returns the outcome of a run whose event ev strikes before op
// strikeOp, and false when only executing the kernel can tell. The
// event's effects merge per entry as dram.Device.InjectCorruption
// merges them.
func (d *decider) decide(ev faults.Event, strikeOp int64) (Outcome, bool) {
	for _, eff := range ev.Effects {
		e := eff.Entry
		if !d.seen[e] {
			d.seen[e] = true
			d.corr[e] = dram.Corruption{}
			d.hit = append(d.hit, e)
		}
		d.corr[e].Merge(eff.Corr)
	}
	due, open := false, false
	for _, e := range d.hit {
		d.seen[e] = false
		if due || !d.tr.firstLoad(e, strikeOp) {
			continue
		}
		c := &d.corr[e]
		if !c.SetMask.IsZero() {
			open = true
			continue
		}
		detected, wrong := d.load(c.Xor)
		due = detected
		open = open || wrong
	}
	d.hit = d.hit[:0]
	switch {
	case due:
		return DUE, true
	case open:
		return 0, false
	}
	return Masked, true
}

// load reads an all-zero payload whose entry is corrupted by xor, as
// gpusim.GPU.Read does: whether the read is Detected and, if not,
// whether its data differs from the payload.
func (d *decider) load(xor bitvec.V288) (detected, wrong bool) {
	wire := d.clean.Xor(xor)
	if d.sch == nil {
		data, _ := wire.DataECC()
		return false, data != [hbm2.EntryBytes]byte{}
	}
	res := d.sch.Decode(wire)
	if res.Status == ecc.Detected {
		return true, false
	}
	return false, res.Data != [hbm2.EntryBytes]byte{}
}
