package evalmc

import (
	"hbm2ecc/internal/bitvec"
	"hbm2ecc/internal/core"
	"hbm2ecc/internal/ecc"
	"hbm2ecc/internal/errormodel"
)

// PermanentKind enumerates the standing (field) fault models of §2.5.
type PermanentKind int

const (
	// PermanentPin models a failed pin — cracked microbump or marginal
	// joint: the pin's four bits per entry read back a constant.
	PermanentPin PermanentKind = iota
	// PermanentByte models a failed mat slice (e.g. a permanent local
	// wordline defect): one aligned byte reads back a constant.
	PermanentByte
)

func (k PermanentKind) String() string {
	if k == PermanentPin {
		return "pin"
	}
	return "byte"
}

// PermanentFault is a stuck-at region on the wire.
type PermanentFault struct {
	Kind PermanentKind
	// Index is the pin number (0..71) or aligned-byte number (0..35).
	Index int
	// Value is the stuck level (0 or 1).
	Value uint
}

// xorPattern converts the stuck region into the XOR error it induces on a
// particular stored entry (stuck-at faults are data-dependent).
func (p PermanentFault) xorPattern(wire bitvec.V288) bitvec.V288 {
	var e bitvec.V288
	switch p.Kind {
	case PermanentPin:
		for _, bit := range bitvec.PinBits(p.Index) {
			if wire.Bit(bit) != p.Value&1 {
				e = e.FlipBit(bit)
			}
		}
	case PermanentByte:
		base := bitvec.ByteBase(p.Index)
		for k := 0; k < 8; k++ {
			if wire.Bit(base+k) != p.Value&1 {
				e = e.FlipBit(base + k)
			}
		}
	}
	return e
}

// PermanentResult reports how a scheme behaves with a standing fault
// present — the graceful-degradation analysis behind the paper's decision
// to preserve single-pin correction (§2.5, §6.2).
type PermanentResult struct {
	Scheme string
	Fault  PermanentFault
	// CleanReadable reports whether a read with no additional soft error
	// still returns correct data (corrected or clean).
	CleanReadable bool
	// PerPattern holds outcomes for Table-1 soft errors layered on top
	// of the standing fault.
	PerPattern [errormodel.NumPatterns]PatternResult
}

// Weighted returns the Table-1-weighted outcomes with the standing fault
// present.
func (pr PermanentResult) Weighted() Weighted {
	w := Weighted{Scheme: pr.Scheme}
	for p := errormodel.Bit1; p < errormodel.NumPatterns; p++ {
		r := pr.PerPattern[p]
		prob := errormodel.Table1[p]
		w.DCE += prob * r.FracDCE()
		w.DUE += prob * r.FracDUE()
		w.SDC += prob * r.FracSDC()
	}
	return w
}

// EvaluateWithPermanent evaluates a scheme with a standing fault layered
// under the soft-error model. Soft patterns that overlap the dead region
// still count; the ground truth for "corrected" is the originally stored
// entry.
func EvaluateWithPermanent(s core.Scheme, fault PermanentFault, opts Options) PermanentResult {
	opts.defaults()
	wire := s.Encode(opts.Data)
	perm := fault.xorPattern(wire)

	res := PermanentResult{Scheme: s.Name(), Fault: fault}
	wr := s.DecodeWire(wire.Xor(perm))
	res.CleanReadable = wr.Status != ecc.Detected && wr.Wire == wire

	// One classifier per pattern, hoisted out of the trial loop: decode
	// scratch lives in the batchClassifier, so the inner loop allocates
	// nothing (pinned by TestEvaluateWithPermanentAllocs). Layering the
	// standing fault under each soft error is a single XOR per trial.
	for p := errormodel.Bit1; p < errormodel.NumPatterns; p++ {
		r := PatternResult{Pattern: p}
		bc := newBatchClassifier(s, wire)
		if errormodel.EnumerableCount(p) >= 0 {
			r.Exhaustive = true
			errormodel.Enumerate(p, func(e bitvec.V288) {
				r.N++
				bc.add(perm.Xor(e))
			})
		} else {
			n := opts.Samples3b
			switch p {
			case errormodel.Beat1:
				n = opts.SamplesBeat
			case errormodel.Entry1:
				n = opts.SamplesEntry
			}
			smp := errormodel.NewSampler(opts.Seed + int64(p)*7_919)
			for i := 0; i < n; i++ {
				r.N++
				bc.add(perm.Xor(smp.Sample(p)))
			}
		}
		bc.flush()
		r.DCE, r.DUE, r.SDC = bc.dce, bc.due, bc.sdc
		res.PerPattern[p] = r
	}
	return res
}
