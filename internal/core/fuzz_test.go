package core

import (
	"testing"

	"hbm2ecc/internal/bitvec"
	"hbm2ecc/internal/ecc"
)

// v288FromBytes packs 36 raw bytes into a wire entry (bit 8i+k of the
// entry is bit k of raw[i]).
func v288FromBytes(raw []byte) bitvec.V288 {
	var v bitvec.V288
	for i, b := range raw[:36] {
		v[i/8] |= uint64(b) << uint(8*(i%8))
	}
	return v
}

// fuzzSeedWords returns a few structured 36-byte seeds.
func fuzzSeedWords() [][]byte {
	zero := make([]byte, 36)
	ramp := make([]byte, 36)
	dense := make([]byte, 36)
	for i := range ramp {
		ramp[i] = byte(i * 7)
		dense[i] = 0xFF
	}
	return [][]byte{zero, ramp, dense}
}

// maxFuzzBatch caps FuzzBatchVsSingle's batch length: two full 64-lane
// slabs plus a ragged tail, so the fuzzer crosses the slab boundary.
const maxFuzzBatch = 2*bitvec.SlabLanes + 2

// FuzzBatchVsSingle builds a ragged batch (1..130 entries) out of
// arbitrary bytes and requires every scheme's batch decoder
// (AsBatchDecoder) to agree lane for lane with a per-entry DecodeWire
// loop.
func FuzzBatchVsSingle(f *testing.F) {
	for _, s := range fuzzSeedWords() {
		f.Add(s)
	}
	long := make([]byte, 36*(bitvec.SlabLanes+6)+17)
	for i := range long {
		long[i] = byte(i*29 + 3)
	}
	f.Add(long)
	schemes := allSchemesDiff()
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) == 0 {
			return
		}
		// Each full 36-byte block is one entry; a ragged tail is padded
		// with zero bytes so arbitrary lengths still contribute an entry.
		n := min((len(raw)+35)/36, maxFuzzBatch)
		recv := make([]bitvec.V288, n)
		padded := make([]byte, 36)
		for i := 0; i < n; i++ {
			blk := raw[i*36:]
			if len(blk) >= 36 {
				recv[i] = v288FromBytes(blk)
			} else {
				copy(padded, blk)
				for j := len(blk); j < 36; j++ {
					padded[j] = 0
				}
				recv[i] = v288FromBytes(padded)
			}
		}
		batchOut := make([]WireResult, n)
		singleOut := make([]WireResult, n)
		for _, s := range schemes {
			AsBatchDecoder(s).DecodeWireBatch(recv, batchOut)
			loopBatch{s}.DecodeWireBatch(recv, singleOut)
			for i := 0; i < n; i++ {
				if batchOut[i] != singleOut[i] {
					t.Fatalf("%s lane %d/%d: batch %+v != single %+v on %v",
						s.Name(), i, n, batchOut[i], singleOut[i], recv[i])
				}
			}
		}
	})
}

// FuzzDecodeFastVsRef throws arbitrary 36-byte received words at every
// scheme: the table-driven fast path (single and batch) must agree
// bit-for-bit with the reference decoder, no decoder may panic, and a
// corrected word must be a decode fixed point (re-decoding reports OK).
func FuzzDecodeFastVsRef(f *testing.F) {
	for _, s := range fuzzSeedWords() {
		f.Add(s)
	}
	schemes := allSchemesDiff()
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) != 36 {
			return
		}
		recv := v288FromBytes(raw)
		batch := []bitvec.V288{recv}
		out := make([]WireResult, 1)
		for _, s := range schemes {
			fast := s.DecodeWire(recv)
			if ref := s.(RefDecoder).DecodeWireRef(recv); fast != ref {
				t.Fatalf("%s: fast %+v != ref %+v on %v", s.Name(), fast, ref, recv)
			}
			AsBatchDecoder(s).DecodeWireBatch(batch, out)
			if out[0] != fast {
				t.Fatalf("%s: batch %+v != single %+v on %v", s.Name(), out[0], fast, recv)
			}
			if fast.Status == ecc.Corrected {
				if again := s.DecodeWire(fast.Wire); again.Status != ecc.OK {
					t.Fatalf("%s: corrected word decodes to %v, not OK", s.Name(), again.Status)
				}
			}
		}
	})
}
