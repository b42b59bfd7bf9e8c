// BEER-style reverse engineering of an unknown on-die code: crafted
// data-retention test patterns against a black-box device recover the
// exact parity-check matrix.

package ondie

import (
	"fmt"
	"math/rand"
	"time"

	"hbm2ecc/internal/bitvec"
	"hbm2ecc/internal/dram"
	"hbm2ecc/internal/gf2"
	"hbm2ecc/internal/hbm2"
)

// Geometry is the hypothesized on-die codeword layout the engine tests:
// full chunks of K visible bits with R hidden parity cells each,
// consecutive over the 288-bit entry, plus a shortened tail when K does
// not divide 288 — the same convention Stage uses. BEER enumerates
// geometry hypotheses from the die datasheet; here the candidate list is
// StageNames-shaped (K, R) pairs.
type Geometry struct {
	K, R int
}

// GeometryOf returns the layout hypothesis matching a candidate stage.
func GeometryOf(st *Stage) Geometry { return Geometry{K: st.Full.K, R: st.Full.R} }

func (g Geometry) nFull() int { return bitvec.EntryBits / g.K }
func (g Geometry) tailK() int { return bitvec.EntryBits % g.K }

// chunks returns the per-chunk (dataWidth, visibleOffset, parityOffset).
func (g Geometry) chunks() []chunkGeo {
	var out []chunkGeo
	for i := 0; i < g.nFull(); i++ {
		out = append(out, chunkGeo{k: g.K, off: i * g.K, poff: i * g.R})
	}
	if t := g.tailK(); t > 0 {
		out = append(out, chunkGeo{k: t, off: g.nFull() * g.K, poff: g.nFull() * g.R})
	}
	return out
}

type chunkGeo struct {
	k    int // visible data bits
	off  int // first visible entry bit
	poff int // first hidden parity cell index
}

// InferOptions tunes the inference engine.
type InferOptions struct {
	// Seed drives the validation phase's random experiments.
	Seed int64
	// Validate is the number of randomized cross-check experiments run
	// against the recovered code (default 256; a negative value
	// disables the check).
	Validate int
}

// InferResult is the recovered on-die code plus engine telemetry.
type InferResult struct {
	Geometry Geometry
	// Cols are the recovered data columns of the full-width code; TailCols
	// of the shortened tail code (empty without a tail).
	Cols     []uint16
	TailCols []uint16
	// Experiments counts crafted-pattern probes (each plants a weak-cell
	// set, reads one entry beyond refresh, and retires it); Reads counts
	// device reads; CellsPlanted counts weak cells created.
	Experiments, Reads, CellsPlanted int
	// Validated counts randomized cross-check experiments that matched
	// the recovered code's predictions.
	Validated int
	Elapsed   time.Duration
}

// Stage materializes the recovered code as a Stage (for side-by-side use
// or direct comparison with a ground-truth stage).
func (r *InferResult) Stage() (*Stage, error) {
	full, err := newCode("recovered", r.Geometry.R, false, r.Cols)
	if err != nil {
		return nil, err
	}
	return NewStage("recovered", full)
}

// Matches reports whether the recovered columns equal a candidate
// stage's ground truth exactly.
func (r *InferResult) Matches(st *Stage) bool {
	if GeometryOf(st) != r.Geometry || !equalCols(r.Cols, st.Full.Cols) {
		return false
	}
	if st.Tail != nil {
		return equalCols(r.TailCols, st.Tail.Cols)
	}
	return len(r.TailCols) == 0
}

func equalCols(a, b []uint16) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// probe is one crafted-pattern retention experiment against the DUT.
type probe struct {
	dev   *dram.Device
	geo   Geometry
	next  int64 // next fresh entry index
	clock float64
	res   *InferResult
}

// retention far below the refresh period: planted cells always leak when
// the read happens beyond their retention time.
const probeRetention = 1e-6

// run writes the all-zero pattern (every cell — data and parity alike —
// stores 0, independent of the unknown H), plants anti-cells (LeakTo=1)
// at the given visible bits and hidden parity cells of a fresh entry,
// reads it beyond refresh, and returns the observed visible error bits.
// The entry is retired afterwards so probes never interact.
func (p *probe) run(visible []int, parity []int) []int {
	entry := p.next
	p.next++
	for _, b := range visible {
		p.dev.AddWeakCell(entry, dram.WeakCell{Bit: b, Retention: probeRetention, LeakTo: 1})
	}
	for _, c := range parity {
		p.dev.AddWeakCell(entry, dram.WeakCell{Bit: bitvec.EntryBits + c, Retention: probeRetention, LeakTo: 1})
	}
	p.res.CellsPlanted += len(visible) + len(parity)
	obs := p.dev.ReadWire(entry, p.clock+1.0)
	p.res.Experiments++
	p.res.Reads++
	p.dev.RetireEntries([]int64{entry})
	return obs.Bits()
}

// Infer recovers the exact H-matrix of the unknown on-die code installed
// on dev, under the given geometry hypothesis. The device must expose
// the raw pre-rank-ECC interface (no wire encoder installed) and is used
// destructively: the engine owns its pattern and weak-cell state.
//
// The probe construction makes each data column directly observable: fix
// a canary data bit i and a target data bit j in one codeword, write
// all-0s (a charge state known without knowing H — the all-zero word's
// parity is zero for any linear code), and plant 0→1 anti-cells at i, j
// and a chosen subset u of the chunk's hidden parity cells. Beyond
// refresh, the raw stored error is exactly {i, j} ∪ u, so the die's
// syndrome is Ci ⊕ Cj ⊕ u. The observed visible error collapses to {j}
// alone if and only if the die "corrected" the canary — i.e. the
// syndrome equals Ci — which happens exactly when u = Cj. Sweeping u
// over all 2^R parity subsets therefore reads Cj off the die, one
// position at a time, with no ambiguity from corrections landing in
// hidden cells. A final randomized phase (all-0s, all-1s and
// checkerboard charge states, random weak-cell sets) validates the
// recovered code against fresh observations, and the H-matrix is
// checked for full GF(2) row rank.
func Infer(dev *dram.Device, geo Geometry, opts InferOptions) (*InferResult, error) {
	start := time.Now()
	if opts.Validate == 0 {
		opts.Validate = 256
	}
	if geo.K < 2 || geo.R < 1 || geo.R > maxR || (geo.tailK() > 0 && geo.tailK() < 2) {
		return nil, fmt.Errorf("ondie: unusable geometry hypothesis %+v", geo)
	}
	res := &InferResult{Geometry: geo}
	p := &probe{dev: dev, geo: geo, res: res}
	dev.WriteAll(func(int64) [bitvec.DataBytes]byte { return [bitvec.DataBytes]byte{} }, p.clock)
	if got := dev.ReadWire(0, p.clock); !got.IsZero() {
		return nil, fmt.Errorf("ondie: device is not exposing the raw interface (pristine read not clean)")
	}

	var err error
	cg := geo.chunks()
	if res.Cols, err = p.recoverChunk(cg[0]); err != nil {
		return nil, err
	}
	if geo.tailK() > 0 {
		if res.TailCols, err = p.recoverChunk(cg[len(cg)-1]); err != nil {
			return nil, err
		}
	}
	if err := res.checkRank(); err != nil {
		return nil, err
	}
	if err := p.validate(opts); err != nil {
		return nil, err
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// recoverChunk runs the canary sweep over one codeword.
func (p *probe) recoverChunk(cg chunkGeo) ([]uint16, error) {
	cols := make([]uint16, cg.k)
	parityOf := func(u uint16) []int {
		var out []int
		for r := 0; r < p.geo.R; r++ {
			if u>>uint(r)&1 != 0 {
				out = append(out, cg.poff+r)
			}
		}
		return out
	}
	for j := 0; j < cg.k; j++ {
		canary := 0
		if j == 0 {
			canary = 1
		}
		found := false
		for u := uint16(0); int(u) < 1<<uint(p.geo.R); u++ {
			obs := p.run([]int{cg.off + canary, cg.off + j}, parityOf(u))
			if len(obs) == 1 && obs[0] == cg.off+j {
				cols[j] = u
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("ondie: no parity subset corrects the canary for data bit %d — geometry hypothesis (K=%d,R=%d) is wrong for this die",
				cg.off+j, p.geo.K, p.geo.R)
		}
	}
	return cols, nil
}

// checkRank verifies the recovered H-matrix is a valid code: all columns
// nonzero, distinct from each other and from the identity parity
// columns, and the full (K+R)-column matrix has GF(2) row rank R.
func (r *InferResult) checkRank() error {
	check := func(cols []uint16, label string) error {
		m := gf2.NewMatrix(len(cols)+r.Geometry.R, r.Geometry.R)
		seen := map[uint16]bool{}
		for rr := 0; rr < r.Geometry.R; rr++ {
			seen[1<<uint(rr)] = true
			m.RowsBits[len(cols)+rr] = uint64(1) << uint(rr)
		}
		for j, c := range cols {
			if c == 0 {
				return fmt.Errorf("ondie: recovered %s column %d is zero (not single-error-correcting)", label, j)
			}
			if seen[c] {
				return fmt.Errorf("ondie: recovered %s column %d = %#x collides with another position", label, j, c)
			}
			seen[c] = true
			m.RowsBits[j] = uint64(c)
		}
		if rank := m.Rank(); rank != r.Geometry.R {
			return fmt.Errorf("ondie: recovered %s H has rank %d, want %d", label, rank, r.Geometry.R)
		}
		return nil
	}
	if err := check(r.Cols, "full"); err != nil {
		return err
	}
	if len(r.TailCols) > 0 {
		return check(r.TailCols, "tail")
	}
	return nil
}

// validate replays randomized retention experiments — all-0s, all-1s and
// checkerboard charge states, random weak-cell sets over data and parity
// cells — and checks the black-box observations against the recovered
// code's predictions (including the predicted charge of hidden parity
// cells, which only a correct H gets right under nonzero patterns).
func (p *probe) validate(opts InferOptions) error {
	rec, err := p.res.Stage()
	if err != nil {
		return err
	}
	if p.geo.tailK() > 0 {
		tail, err := newCode("recovered-tail", p.geo.R, false, p.res.TailCols)
		if err != nil {
			return err
		}
		rec.Tail = tail
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	patterns := []byte{0x00, 0xFF, 0x55}
	cg := p.geo.chunks()
	for v := 0; v < opts.Validate; v++ {
		fill := patterns[rng.Intn(len(patterns))]
		pat := func(int64) [bitvec.DataBytes]byte {
			var d [bitvec.DataBytes]byte
			for i := range d {
				d[i] = fill
			}
			return d
		}
		p.clock += 1.0
		p.dev.WriteAll(pat, p.clock)
		clean := bitvec.FromDataECC(pat(0), [4]byte{})
		storedParity := rec.Parity(clean)

		g := cg[rng.Intn(len(cg))]
		nerr := 1 + rng.Intn(4)
		entry := p.next
		p.next++
		var rawErr bitvec.V288
		var parityErr uint64
		for e := 0; e < nerr; e++ {
			if rng.Intn(4) == 0 { // parity cell
				r := g.poff + rng.Intn(p.geo.R)
				stored := uint(storedParity>>uint(r)) & 1
				p.dev.AddWeakCell(entry, dram.WeakCell{
					Bit: bitvec.EntryBits + r, Retention: probeRetention, LeakTo: 1 - stored})
				parityErr |= 1 << uint(r)
			} else {
				b := g.off + rng.Intn(g.k)
				stored := clean.Bit(b)
				p.dev.AddWeakCell(entry, dram.WeakCell{
					Bit: b, Retention: probeRetention, LeakTo: 1 - stored})
				rawErr = rawErr.SetBit(b, 1)
			}
			p.res.CellsPlanted++
		}
		predicted := rec.Correct(clean, clean.Xor(rawErr), parityErr)
		got := p.dev.ReadWire(entry, p.clock+1.0)
		p.res.Experiments++
		p.res.Reads++
		p.dev.RetireEntries([]int64{entry})
		if got != predicted {
			return fmt.Errorf("ondie: validation experiment %d diverged from the recovered code (pattern %#x)", v, fill)
		}
		p.res.Validated++
	}
	return nil
}

// InferCandidate builds a fresh black-box device carrying the named
// candidate stage and runs full inference against it — the end-to-end
// demo `ecceval -ondie-infer` and the check.sh smoke drive. It returns
// the result and whether the recovery matched the ground truth exactly.
func InferCandidate(name string, cfg hbm2.Config, opts InferOptions) (*InferResult, bool, error) {
	truth, err := StageByName(name)
	if err != nil {
		return nil, false, err
	}
	dev := dram.New(cfg, dram.DefaultRefreshPeriod)
	dev.SetOnDie(truth)
	res, err := Infer(dev, GeometryOf(truth), opts)
	if err != nil {
		return nil, false, err
	}
	return res, res.Matches(truth), nil
}
