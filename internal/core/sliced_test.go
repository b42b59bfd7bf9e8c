package core

import (
	"strings"
	"sync"
	"testing"

	"hbm2ecc/internal/bitvec"
	"hbm2ecc/internal/ecc"
	"hbm2ecc/internal/errormodel"
)

// TestDifferentialSlicedVsRef drives every scheme's batch decoder
// (AsBatchDecoder: the bit-sliced slab kernel for symbol schemes, the
// two-pass tables for binary ones) against the reference decoder over the
// exhaustive 1-bit, pin, byte and 2-bit classes plus seeded samples of
// the 3-bit, beat and entry classes, in evaluator-sized batches that span
// several 64-lane slabs. Any divergence in wire image, status or
// corrected-bit count fails.
func TestDifferentialSlicedVsRef(t *testing.T) {
	const (
		sampledPerClass = 2000
		batch           = 256
	)
	for _, s := range allSchemesDiff() {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			t.Parallel()
			rd := s.(RefDecoder)
			bd := AsBatchDecoder(s)
			wire := s.Encode(diffData())

			var errs [batch]bitvec.V288
			recv := make([]bitvec.V288, batch)
			out := make([]WireResult, batch)
			n := 0
			flush := func() {
				for i := 0; i < n; i++ {
					recv[i] = wire.Xor(errs[i])
				}
				bd.DecodeWireBatch(recv[:n], out[:n])
				for i := 0; i < n; i++ {
					if ref := rd.DecodeWireRef(recv[i]); out[i] != ref {
						t.Fatalf("batch lane %d diverges on error %v (pattern %s):\nbatch: %+v\nref:   %+v",
							i, errs[i], errormodel.Classify(errs[i]), out[i], ref)
					}
				}
				n = 0
			}
			check := func(e bitvec.V288) {
				errs[n] = e
				n++
				if n == batch {
					flush()
				}
			}

			for p := errormodel.Bit1; p <= errormodel.Bits2; p++ {
				errormodel.Enumerate(p, check)
			}
			smp := errormodel.NewSampler(0x51ABD1FF)
			for _, p := range []errormodel.Pattern{errormodel.Bits3, errormodel.Beat1, errormodel.Entry1} {
				for i := 0; i < sampledPerClass; i++ {
					check(smp.Sample(p))
				}
			}
			// The clean entry, plus a zero-syndrome nonzero error (the XOR
			// of two codewords) that the clean-lane screen must pass
			// through undecoded.
			check(bitvec.V288{})
			var d2 [bitvec.DataBytes]byte
			d2[0] = 0x01
			check(wire.Xor(s.Encode(d2)))
			flush()
		})
	}
}

// TestSlicedMixedBatch interleaves clean, correctable and DUE entries in
// one batch for every scheme, so a lane-masking or screening bug that
// favors homogeneous batches cannot hide. Construction guarantees all
// three statuses are present, and DecodeWireBatch must match per-entry
// decoding lane for lane.
func TestSlicedMixedBatch(t *testing.T) {
	for _, s := range allSchemesDiff() {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			t.Parallel()
			bd := AsBatchDecoder(s)
			wire := s.Encode(diffData())

			// A 1-bit error is correctable under every scheme; hunt for a
			// deterministic DUE pattern among 3-bit samples.
			smp := errormodel.NewSampler(0xD0E)
			var due bitvec.V288
			found := false
			for i := 0; i < 10000 && !found; i++ {
				e := smp.Sample(errormodel.Bits3)
				if s.DecodeWire(wire.Xor(e)).Status == ecc.Detected {
					due, found = e, true
				}
			}
			if !found {
				t.Fatalf("%s: no DUE pattern found in 10000 3-bit samples", s.Name())
			}

			recv := make([]bitvec.V288, 2*bitvec.SlabLanes+2)
			statuses := map[ecc.Status]int{}
			for i := range recv {
				switch i % 3 {
				case 0:
					recv[i] = wire
				case 1:
					recv[i] = wire.FlipBit((i * 37) % bitvec.EntryBits)
				default:
					recv[i] = wire.Xor(due)
				}
				statuses[s.DecodeWire(recv[i]).Status]++
			}
			for _, st := range []ecc.Status{ecc.OK, ecc.Corrected, ecc.Detected} {
				if statuses[st] == 0 {
					t.Fatalf("%s: construction produced no %v entries", s.Name(), st)
				}
			}

			// Every ragged prefix, so the lane mask is exercised at each
			// boundary class (1, partial word, full slab, slab plus a
			// ragged tail).
			for _, n := range []int{1, 2, 3, 31, 32, 33, 63, 64, 65, 127, 128, 129, 130} {
				out := make([]WireResult, n)
				bd.DecodeWireBatch(recv[:n], out)
				for i := 0; i < n; i++ {
					if want := s.DecodeWire(recv[i]); out[i] != want {
						t.Fatalf("%s: mixed batch n=%d lane %d: got %+v want %+v", s.Name(), n, i, out[i], want)
					}
				}
			}
		})
	}
}

// TestBatchOutContract pins the explicit len(out) >= len(recv) contract:
// every batch entry point (binary tables, symbol slab kernel, the
// reconfigurable decoder and the loopBatch fallback) must panic with a
// clear message instead of silently truncating or corrupting memory.
func TestBatchOutContract(t *testing.T) {
	mustPanic := func(t *testing.T, name string, fn func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s: no panic on short output buffer", name)
			}
			msg, ok := r.(string)
			if !ok || !strings.Contains(msg, "output buffer too small") {
				t.Fatalf("%s: panic %v does not explain the contract", name, r)
			}
		}()
		fn()
	}

	recv := make([]bitvec.V288, 8)
	short := make([]WireResult, 7)
	for _, s := range []Scheme{NewDuetECC(), NewSSCDSDPlus(), NewReconfigurable()} {
		s := s
		mustPanic(t, s.Name()+"/DecodeWireBatch", func() {
			AsBatchDecoder(s).DecodeWireBatch(recv, short)
		})
	}
	s := NewDuetECC()
	mustPanic(t, "loopBatch fallback", func() {
		AsBatchDecoder(struct{ Scheme }{s}).DecodeWireBatch(recv, short)
	})

	// An exactly-sized and an oversized buffer must both be accepted.
	AsBatchDecoder(s).DecodeWireBatch(recv, make([]WireResult, 8))
	AsBatchDecoder(s).DecodeWireBatch(recv, make([]WireResult, 9))
}

// TestConcurrentSlicedDeterminism hammers one scheme's shared decode
// tables from many goroutines (run under -race): every worker decodes the
// same batches through DecodeWireBatch, and all results must be identical
// to the sequentially computed ones.
func TestConcurrentSlicedDeterminism(t *testing.T) {
	for _, s := range []Scheme{NewTrioECC(), NewSSCDSDPlus()} {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			t.Parallel()
			bd := AsBatchDecoder(s)
			wire := s.Encode(diffData())
			smp := errormodel.NewSampler(7)

			const nBatches = 8
			type batch struct {
				recv []bitvec.V288
				want []WireResult
			}
			batches := make([]*batch, nBatches)
			for bi := range batches {
				b := &batch{recv: make([]bitvec.V288, bitvec.SlabLanes)}
				for i := range b.recv {
					e := smp.Sample(errormodel.Byte1)
					if i%2 == 0 {
						e = bitvec.V288{}
					}
					b.recv[i] = wire.Xor(e)
				}
				b.want = make([]WireResult, bitvec.SlabLanes)
				bd.DecodeWireBatch(b.recv, b.want)
				batches[bi] = b
			}

			var wg sync.WaitGroup
			errCh := make(chan string, 16)
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					out := make([]WireResult, bitvec.SlabLanes)
					for rep := 0; rep < 50; rep++ {
						for _, b := range batches {
							bd.DecodeWireBatch(b.recv, out)
							for i := range out {
								if out[i] != b.want[i] {
									errCh <- "DecodeWireBatch diverged"
									return
								}
							}
						}
					}
				}()
			}
			wg.Wait()
			close(errCh)
			if msg, open := <-errCh; open {
				t.Fatal(msg)
			}
		})
	}
}
