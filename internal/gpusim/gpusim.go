// Package gpusim wraps the DRAM model into a GPU-shaped device: device
// memory with optional DRAM ECC (any entry-level scheme from
// internal/core) and a clock. The workload kernels run on it as the
// CUDA-visible GPU of §3. The device stores scheme-encoded entries, and
// every load decodes the entry's wire.
package gpusim

import (
	"hbm2ecc/internal/core"
	"hbm2ecc/internal/dram"
	"hbm2ecc/internal/ecc"
	"hbm2ecc/internal/hbm2"
)

// GPU is a simulated GPU with HBM2 device memory.
type GPU struct {
	// Dev is the device memory. Its wire encoder is Scheme.Encode (or the
	// standard zero-ECC layout with ECC off).
	Dev *dram.Device
	// Scheme is the DRAM ECC organization, or nil with ECC disabled
	// (reads return raw device data, as in the paper's beam campaigns).
	Scheme core.Scheme

	clock float64
}

// New builds a GPU on a fresh device. With a non-nil scheme, DRAM ECC is
// enabled: the device stores scheme-encoded entries and reads decode
// them.
func New(cfg hbm2.Config, scheme core.Scheme) *GPU {
	g := &GPU{Dev: dram.New(cfg, dram.DefaultRefreshPeriod), Scheme: scheme}
	if scheme != nil {
		g.Dev.SetWireEncoder(scheme.Encode)
	}
	return g
}

// Clock returns the GPU's current simulation time in seconds.
func (g *GPU) Clock() float64 { return g.clock }

// Advance moves the simulation clock forward.
func (g *GPU) Advance(dt float64) { g.clock += dt }

// WritePattern writes a full-memory data pattern at the current time.
func (g *GPU) WritePattern(pat dram.PatternFn) { g.Dev.WriteAll(pat, g.clock) }

// WriteEntry models one 32B store through the memory controller at the
// current clock. The payload is owned by the caller's pattern source
// (see dram.RewriteEntry); the device clears the entry's recorded
// soft-error corruption — the stored charge was replaced — and restarts
// its weak-cell leak clocks.
func (g *GPU) WriteEntry(idx int64) { g.Dev.RewriteEntry(idx, g.clock) }

// ReadResult is the outcome of one ECC-protected read.
type ReadResult struct {
	Data   [hbm2.EntryBytes]byte
	Status ecc.Status
}

// Read performs one 32B read at the current clock. With ECC enabled the
// entry is decoded (correcting or detecting errors); with ECC disabled
// the raw (possibly corrupted) data is returned with status OK.
func (g *GPU) Read(idx int64) ReadResult {
	wire := g.Dev.ReadWire(idx, g.clock)
	if g.Scheme == nil {
		data, _ := wire.DataECC()
		return ReadResult{Data: data, Status: ecc.OK}
	}
	res := g.Scheme.Decode(wire)
	return ReadResult{Data: res.Data, Status: res.Status}
}
