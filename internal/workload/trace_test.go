package workload

import (
	"math/rand"
	"sync"
	"testing"

	"hbm2ecc/internal/bitvec"
	"hbm2ecc/internal/core"
	"hbm2ecc/internal/dram"
	"hbm2ecc/internal/faults"
	"hbm2ecc/internal/gpusim"
)

// allSchemes returns every registered scheme plus ECC off (nil, last).
func allSchemes() []core.Scheme {
	names := core.SchemeNames()
	out := make([]core.Scheme, 0, len(names)+1)
	for _, n := range names {
		s, err := core.SchemeByName(n)
		if err != nil {
			panic(err) // every registered name resolves
		}
		out = append(out, s)
	}
	return append(out, nil)
}

func schemeName(s core.Scheme) string {
	if s == nil {
		return NoECC
	}
	return s.Name()
}

// recordTrace executes kernel k unfaulted on inputs drawn from seed and
// returns its trace and the allocator's final size.
func recordTrace(k Kernel, seed int64) (*trace, int64) {
	m := NewMemory(gpusim.New(workloadConfig, nil))
	m.trace = &trace{}
	inst := newInstance(k, rand.New(rand.NewSource(seed)), m)
	inst.run(m)
	m.ReadOut(inst.out)
	m.trace.ops = m.Ops()
	return m.trace, m.next
}

// TestKernelArenaCompleteAtFirstAccess checks what drawing the event
// before the kernel runs relies on: every kernel has allocated its
// whole arena by its first load or store, so a strike at any op lands
// in the same arena.
func TestKernelArenaCompleteAtFirstAccess(t *testing.T) {
	for _, k := range Kernels() {
		tr, next := recordTrace(k, 1)
		if tr.arena == 0 || tr.arena != next {
			t.Errorf("%s: arena %d at the first access, %d at the end", k, tr.arena, next)
		}
	}
}

// freshMemory is a Memory on a new GPU carrying sch, the state a reused
// one must be reset to.
func freshMemory(sch core.Scheme) *Memory {
	return NewMemory(gpusim.New(workloadConfig, sch))
}

// referenceRun is runOne without the trace decision and without reuse:
// every run that reaches the device executes its kernel on a fresh
// Memory.
func referenceRun(sch core.Scheme, k Kernel, rng *rand.Rand, tr *trace) Outcome {
	src := drawSource(rng)
	strikeOp := rng.Int63n(tr.ops)
	if src != faults.SourceDRAM {
		p := faults.DefaultProfiles[src]
		x := rng.Float64()
		switch {
		case x < p.PDetected:
			return DUE
		case x < p.PDetected+p.PCrash:
			return Crash
		}
		poisonBit := rng.Intn(32)
		return simulate(freshMemory(sch), k, rng, strikeOp, poisonBit, faults.Event{})
	}
	ev := faults.NewInjector(workloadConfig, rng.Int63()).RandomEventIn(0, tr.arena)
	return simulate(freshMemory(sch), k, rng, strikeOp, -1, ev)
}

// TestTraceDecisionMatchesSimulation runs cells of every registered
// scheme plus ECC off on every kernel twice, with the trace decision and
// with every run simulated, and requires identical outcomes run by run.
// The decided side reuses its cell's Memory as a campaign does and the
// reference builds a fresh one per run, so a match also shows that
// reuse carries nothing from one run into the next. It also requires
// the decision to settle both masked and DUE runs.
func TestTraceDecisionMatchesSimulation(t *testing.T) {
	const runs = 40
	var decided [NumOutcomes]int
	for _, sch := range allSchemes() {
		for _, k := range Kernels() {
			seed := cellSeed(17, schemeName(sch), k)
			tr, err := dryRun(k, seed)
			if err != nil {
				t.Fatal(err)
			}
			d := newDecider(sch, tr)
			for r := 0; r < runs; r++ {
				runSeed := int64(splitmix64(uint64(seed) + uint64(r)))
				got, _, ok := runOne(d, k, rand.New(rand.NewSource(runSeed)))
				want := referenceRun(sch, k, rand.New(rand.NewSource(runSeed)), tr)
				if got != want {
					t.Errorf("%s/%s run %d: %s with the trace decision (decided=%v), %s simulated",
						schemeName(sch), k, r, got, ok, want)
				}
				if ok {
					decided[got]++
				}
			}
		}
	}
	if decided[Masked] == 0 || decided[DUE] == 0 {
		t.Errorf("trace decided %v runs by outcome; want both masked and DUE", decided)
	}
}

// fuzzCells holds one decider per (scheme, kernel), built once per
// fuzzing process.
var fuzzCells = sync.OnceValues(func() ([]core.Scheme, [][NumKernels]*decider) {
	schemes := allSchemes()
	decs := make([][NumKernels]*decider, len(schemes))
	for i, sch := range schemes {
		for _, k := range Kernels() {
			tr, err := dryRun(k, int64(i))
			if err != nil {
				panic(err)
			}
			decs[i][k] = newDecider(sch, tr)
		}
	}
	return schemes, decs
})

// fuzzEvent builds a DRAM event in [0, arena) from evSeed and shape.
// Shape 0 mod 4 draws a real injector event (multi-entry ones wrap onto
// the arena); otherwise it has 1..4 effects of random XOR patterns of
// 1..40 bits, all on two entries when shape&16 (effects that merge), and
// the first effect stuck-at when shape&32.
func fuzzEvent(evSeed int64, shape uint8, arena int64) faults.Event {
	if shape%4 == 0 {
		return faults.NewInjector(workloadConfig, evSeed).RandomEventIn(0, arena)
	}
	rng := rand.New(rand.NewSource(evSeed))
	n := 1 + int(shape>>2&3)
	base := rng.Int63n(arena)
	var ev faults.Event
	for i := 0; i < n; i++ {
		e := rng.Int63n(arena)
		if shape&16 != 0 {
			e = (base + int64(i%2)) % arena
		}
		var c dram.Corruption
		bits := 1 + rng.Intn(1+rng.Intn(40))
		for j := 0; j < bits; j++ {
			c.Xor = c.Xor.FlipBit(rng.Intn(bitvec.EntryBits))
		}
		if i == 0 && shape&32 != 0 {
			for j := 0; j < bits; j++ {
				b := rng.Intn(bitvec.EntryBits)
				c.SetMask[b>>6] |= 1 << uint(b&63)
				c.SetVal[b>>6] |= uint64(rng.Intn(2)) << uint(b&63)
			}
		}
		ev.Effects = append(ev.Effects, faults.EntryEffect{Entry: e, Corr: c})
	}
	return ev
}

// FuzzDecideVsSimulate checks the trace decision against the full
// simulation: for a fuzzed scheme (every registered one plus ECC off),
// kernel, input seed, strike op and event, a run the trace settles must
// have the outcome executing the kernel gives.
func FuzzDecideVsSimulate(f *testing.F) {
	f.Add(uint8(0), uint8(0), int64(1), uint32(0), int64(1), uint8(0))
	f.Add(uint8(3), uint8(1), int64(2), uint32(900), int64(5), uint8(1))
	f.Add(uint8(5), uint8(2), int64(3), uint32(40), int64(9), uint8(1|16))
	f.Add(uint8(8), uint8(0), int64(4), uint32(2000), int64(2), uint8(3|32))
	f.Add(uint8(10), uint8(1), int64(5), uint32(1500), int64(8), uint8(2|4|16|32))
	f.Add(uint8(13), uint8(2), int64(6), uint32(100), int64(3), uint8(1))
	f.Add(uint8(13), uint8(0), int64(7), uint32(300), int64(4), uint8(0))
	f.Add(uint8(2), uint8(1), int64(8), uint32(700), int64(6), uint8(3|12|16))
	f.Add(uint8(11), uint8(2), int64(327), uint32(1196), int64(190), uint8(24))
	f.Add(uint8(3), uint8(2), int64(2), uint32(900), int64(5), uint8(2|8))
	f.Fuzz(func(t *testing.T, scheme, kernel uint8, seed int64, strike uint32, evSeed int64, shape uint8) {
		schemes, decs := fuzzCells()
		i := int(scheme) % len(schemes)
		k := Kernel(int(kernel) % int(NumKernels))
		d := decs[i][k]
		strikeOp := int64(strike) % d.tr.ops
		ev := fuzzEvent(evSeed, shape, d.tr.arena)
		got, ok := d.decide(ev, strikeOp)
		if !ok {
			return
		}
		if want := simulate(freshMemory(schemes[i]), k, rand.New(rand.NewSource(seed)), strikeOp, -1, ev); got != want {
			t.Fatalf("%s/%s strike %d: trace decided %s, simulation gives %s (event %+v)",
				schemeName(schemes[i]), k, strikeOp, got, want, ev)
		}
	})
}
