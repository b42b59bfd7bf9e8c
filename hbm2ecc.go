// Package hbm2ecc is a library reproduction of "Characterizing and
// Mitigating Soft Errors in GPU DRAM" (Sullivan et al., MICRO 2021): the
// paper's tailored HBM2 ECC organizations — DuetECC, TrioECC and SSC-DSD+
// — together with the SEC-DED and Reed-Solomon baselines, an analytical
// soft-error model drawn from the paper's neutron-beam measurements, a
// Monte-Carlo resilience evaluator, a gate-level hardware cost model, and
// system-level (exascale and automotive) reliability analyses.
//
// The unit of protection is a 36-byte HBM2 memory entry: 32 bytes of data
// plus 4 bytes of ECC, transmitted over 72 pins in 4 beats. A Codec
// encodes 32B payloads into 36B entries and decodes possibly-corrupted
// entries back, correcting or detecting errors per its organization:
//
//	codec := hbm2ecc.NewTrioECC()
//	entry := codec.Encode(&data)           // 36B protected entry
//	out, res := codec.Decode(entry)        // decode after storage
//	switch res.Status { ... }
//
// The simulated characterization stack (HBM2 geometry, DRAM cell
// simulation, neutron beamline, CUDA-style microbenchmark, and the
// classification pipeline) lives under internal/ and is driven by the
// binaries in cmd/ and the benchmark harness; see DESIGN.md for the map.
package hbm2ecc

import (
	"hbm2ecc/internal/bitvec"
	"hbm2ecc/internal/core"
	"hbm2ecc/internal/evalmc"
	"hbm2ecc/internal/sysrel"
)

// Size constants of the HBM2 entry geometry.
const (
	// DataBytes is the payload size protected by one entry.
	DataBytes = 32
	// EntryBytes is the stored/transmitted entry size (data + ECC).
	EntryBytes = 36
)

// Status is the outcome of decoding one entry.
type Status int

const (
	// OK: no error was observed.
	OK Status = iota
	// Corrected: an error was detected and corrected.
	Corrected
	// Detected: an uncorrectable error was detected (DUE); the data
	// must be discarded.
	Detected
)

func (s Status) String() string {
	switch s {
	case OK:
		return "OK"
	case Corrected:
		return "Corrected"
	case Detected:
		return "Detected"
	default:
		return "Status(?)"
	}
}

// Result describes one decode.
type Result struct {
	Status Status
	// CorrectedBits counts wire bits repaired by the decoder.
	CorrectedBits int
}

// Codec is an entry-level ECC organization. Codecs are safe for
// concurrent use.
type Codec struct {
	s core.Scheme
}

// Name returns the organization's name (e.g. "DuetECC").
func (c *Codec) Name() string { return c.s.Name() }

// CorrectsPins reports whether the organization can correct a permanent
// single-pin failure (all organizations except SSC-DSD+).
func (c *Codec) CorrectsPins() bool { return c.s.CorrectsPins() }

// Encode protects a 32B payload, returning the 36B entry.
func (c *Codec) Encode(data *[DataBytes]byte) [EntryBytes]byte {
	return wireToBytes(c.s.Encode(*data))
}

// Decode decodes a received 36B entry. When Status is Detected the
// returned payload is unspecified and must not be used.
func (c *Codec) Decode(entry [EntryBytes]byte) ([DataBytes]byte, Result) {
	res := c.s.Decode(bytesToWire(entry))
	return res.Data, Result{Status: Status(res.Status), CorrectedBits: res.CorrectedBits}
}

// FlipBits returns a copy of entry with the given wire bits (0..287)
// inverted — a convenience for error-injection experiments and tests.
func FlipBits(entry [EntryBytes]byte, bits ...int) [EntryBytes]byte {
	w := bytesToWire(entry)
	for _, b := range bits {
		w = w.FlipBit(b)
	}
	return wireToBytes(w)
}

func wireToBytes(w bitvec.V288) [EntryBytes]byte {
	var out [EntryBytes]byte
	for i := 0; i < EntryBytes; i++ {
		out[i] = w.Byte(i)
	}
	return out
}

func bytesToWire(b [EntryBytes]byte) bitvec.V288 {
	var w bitvec.V288
	for i := 0; i < EntryBytes; i++ {
		w = w.SetByte(i, b[i])
	}
	return w
}

// NewSECDED returns the (72,64)×4 Hsiao SEC-DED baseline (the paper's
// model of current GPU DRAM ECC).
func NewSECDED() *Codec { return &Codec{core.NewSECDED(false, false)} }

// NewInterleavedSECDED returns SEC-DED with logical codeword interleaving
// (half-byte correction, byte detection, pin correction).
func NewInterleavedSECDED() *Codec { return &Codec{core.NewSECDED(true, false)} }

// NewDuetECC returns DuetECC: interleaved SEC-DED plus the correction
// sanity check. Detection-oriented; >3 orders of magnitude lower SDC risk
// than SEC-DED.
func NewDuetECC() *Codec { return &Codec{core.NewDuetECC()} }

// NewSEC2bEC returns the GA-searched SEC-2bEC code without interleaving
// (shown in the paper to be a resilience regression on its own).
func NewSEC2bEC() *Codec { return &Codec{core.NewSEC2bEC(false, false)} }

// NewInterleavedSEC2bEC returns interleaved SEC-2bEC without the
// correction sanity check.
func NewInterleavedSEC2bEC() *Codec { return &Codec{core.NewSEC2bEC(true, false)} }

// NewTrioECC returns TrioECC: interleaved SEC-2bEC plus the correction
// sanity check. Correction-oriented: full byte-error correction, ~7.9×
// fewer uncorrectable errors than DuetECC, ~2 orders of magnitude lower
// SDC risk than SEC-DED.
func NewTrioECC() *Codec { return &Codec{core.NewTrioECC()} }

// NewSSC returns the interleaved (18,16)×2 Reed-Solomon single-symbol-
// correct scheme; withCSC adds the correction sanity check.
func NewSSC(withCSC bool) *Codec { return &Codec{core.NewSSC(withCSC)} }

// NewSSCDSDPlus returns SSC-DSD+: a (36,32) Reed-Solomon code with
// one-shot triple-vote decoding. Lowest SDC risk of all organizations,
// but no pin correction and the largest decoder.
func NewSSCDSDPlus() *Codec { return &Codec{core.NewSSCDSDPlus()} }

// NewDSC returns the (36,32) double-symbol-correct organization the paper
// rejects (§6.2): it corrects any two symbol errors via iterative
// algebraic decoding, which costs at least 8 decoder cycles — too slow
// for GPU DRAM. Provided for design-space exploration.
func NewDSC() *Codec { return &Codec{core.NewDSC()} }

// NewSSCTSD returns the (36,32) single-symbol-correct triple-symbol-detect
// organization, the other §6.2 alternative rejected for iterative-decoder
// latency. Provided for design-space exploration.
func NewSSCTSD() *Codec { return &Codec{core.NewSSCTSD()} }

// Mode selects the behavior of a reconfigurable codec.
type Mode = core.Mode

// Reconfigurable modes.
const (
	ModeDuet = core.ModeDuet
	ModeTrio = core.ModeTrio
)

// ReconfigurableCodec is the combined DuetECC/TrioECC decoder: one
// hardware structure whose output logic toggles between detection-
// oriented (Duet) and correction-oriented (Trio) operation, per GPU or
// per context.
type ReconfigurableCodec struct {
	Codec
	r *core.Reconfigurable
}

// NewReconfigurable returns the combined decoder in Duet mode.
func NewReconfigurable() *ReconfigurableCodec {
	r := core.NewReconfigurable()
	return &ReconfigurableCodec{Codec: Codec{r}, r: r}
}

// SetMode switches between Duet and Trio operation.
func (rc *ReconfigurableCodec) SetMode(m Mode) { rc.r.SetMode(m) }

// CurrentMode returns the active mode.
func (rc *ReconfigurableCodec) CurrentMode() Mode { return rc.r.CurrentMode() }

// AllCodecs returns one codec per Table-2 organization, in the paper's
// row order.
func AllCodecs() []*Codec {
	return []*Codec{
		NewSECDED(),
		NewInterleavedSECDED(),
		NewDuetECC(),
		NewSEC2bEC(),
		NewInterleavedSEC2bEC(),
		NewTrioECC(),
		NewSSC(false),
		NewSSC(true),
		NewSSCDSDPlus(),
	}
}

// EvalOptions configures Evaluate.
type EvalOptions struct {
	// Seed makes sampled error patterns reproducible.
	Seed int64
	// Samples is the Monte-Carlo sample count for the non-enumerable
	// pattern classes (3-bit, beat, entry); 0 selects 200k.
	Samples int
	// Parallel evaluates the pattern classes concurrently, one goroutine
	// each. Every class draws from its own sampler stream, so the result
	// is the same with or without it, on any machine.
	Parallel bool
}

// Outcome is a Table-1-weighted event outcome distribution (Fig. 8).
type Outcome struct {
	// Corrected, Detected and SDC are the probabilities that a random
	// soft-error event is corrected, detected-but-uncorrected, or
	// silently corrupts data.
	Corrected, Detected, SDC float64
}

// Evaluate measures a codec against the paper's 7-pattern analytical
// error model (exhaustively where practical, by Monte Carlo otherwise)
// and returns the Table-1-weighted outcome probabilities.
func Evaluate(c *Codec, opts EvalOptions) Outcome {
	res := evalmc.Evaluate(c.s, evalmc.Options{
		Seed:         opts.Seed,
		Samples3b:    opts.Samples,
		SamplesBeat:  opts.Samples,
		SamplesEntry: opts.Samples,
		Parallel:     opts.Parallel,
	})
	w := res.Weighted()
	return Outcome{Corrected: w.DCE, Detected: w.DUE, SDC: w.SDC}
}

// Reliability converts an evaluated outcome into per-GPU FIT rates and
// the ISO 26262 verdict, using the paper's 12.51 FIT/Gb raw rate and a
// 40GB GPU.
type Reliability struct {
	// RawFIT is the raw per-GPU fault rate.
	RawFIT float64
	// DUEFIT and SDCFIT are the post-ECC detected and silent rates.
	DUEFIT, SDCFIT float64
	// MeetsISO26262 reports whether SDCFIT is within the 10-FIT budget.
	MeetsISO26262 bool
}

// ReliabilityOf computes per-GPU reliability for an evaluated codec.
func ReliabilityOf(name string, o Outcome) Reliability {
	g := sysrel.FromWeighted(evalmc.Weighted{
		Scheme: name, DCE: o.Corrected, DUE: o.Detected, SDC: o.SDC,
	}, sysrel.A100MemoryGb)
	return Reliability{
		RawFIT:        g.RawFIT,
		DUEFIT:        g.DUEFIT,
		SDCFIT:        g.SDCFIT,
		MeetsISO26262: g.MeetsISO26262(),
	}
}
