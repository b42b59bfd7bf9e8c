package core

import (
	"fmt"
	"testing"

	"hbm2ecc/internal/bitvec"
	"hbm2ecc/internal/errormodel"
)

// benchCorpus builds received words for one scheme corrupted by one
// sampled error class (plus a clean corpus for the no-error common case).
func benchCorpus(s Scheme, p errormodel.Pattern, n int) []bitvec.V288 {
	var data [bitvec.DataBytes]byte
	for i := range data {
		data[i] = byte(i*17 + 3)
	}
	wire := s.Encode(data)
	smp := errormodel.NewSampler(0xBE7C)
	corpus := make([]bitvec.V288, n)
	for i := range corpus {
		if p == errormodel.NumPatterns { // sentinel: clean
			corpus[i] = wire
		} else {
			corpus[i] = wire.Xor(smp.Sample(p))
		}
	}
	return corpus
}

var sinkStatus int

// BenchmarkDecode compares the reference, fast single-shot and batch
// decode paths per scheme and sampled error class; cmd/bench aggregates
// the same measurements into BENCH_decode.json.
func BenchmarkDecode(b *testing.B) {
	schemes := benchSchemes()
	classes := []errormodel.Pattern{errormodel.Bits3, errormodel.Beat1, errormodel.Entry1}
	const n = 4096
	for _, s := range schemes {
		for _, p := range classes {
			corpus := benchCorpus(s, p, n)
			out := make([]WireResult, n)
			b.Run(fmt.Sprintf("%s/%s/ref", s.Name(), p), func(b *testing.B) {
				rd := s.(RefDecoder)
				for i := 0; i < b.N; i++ {
					sinkStatus += int(rd.DecodeWireRef(corpus[i%n]).Status)
				}
			})
			b.Run(fmt.Sprintf("%s/%s/fast", s.Name(), p), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sinkStatus += int(s.DecodeWire(corpus[i%n]).Status)
				}
			})
			b.Run(fmt.Sprintf("%s/%s/batch", s.Name(), p), func(b *testing.B) {
				bd := AsBatchDecoder(s)
				for i := 0; i < b.N; i += n {
					bd.DecodeWireBatch(corpus, out)
				}
				sinkStatus += int(out[0].Status)
			})
		}
	}
}

var sinkWire bitvec.V288

// benchSchemes are the schemes the benchmarks cover: the baseline, both
// interleaved binary organizations and both symbol layouts.
func benchSchemes() []Scheme {
	return []Scheme{
		NewSECDED(false, false),
		NewDuetECC(),
		NewTrioECC(),
		NewSSC(true),
		NewSSCDSDPlus(),
	}
}

// BenchmarkEncode compares Encode with the reference bit-at-a-time
// encoder per scheme.
func BenchmarkEncode(b *testing.B) {
	for _, s := range benchSchemes() {
		ref := asRefCodec(b, s)
		var data [bitvec.DataBytes]byte
		for i := range data {
			data[i] = byte(i*17 + 3)
		}
		b.Run(s.Name()+"/ref", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				data[0] = byte(i)
				sinkWire = ref.encodeRef(data)
			}
		})
		b.Run(s.Name()+"/fast", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				data[0] = byte(i)
				sinkWire = s.Encode(data)
			}
		})
	}
}

var sinkData [bitvec.DataBytes]byte

// BenchmarkExtractData compares ExtractData with the reference
// bit-at-a-time extractor per scheme.
func BenchmarkExtractData(b *testing.B) {
	for _, s := range benchSchemes() {
		ref := asRefCodec(b, s)
		var data [bitvec.DataBytes]byte
		for i := range data {
			data[i] = byte(i*29 + 5)
		}
		wire := s.Encode(data)
		b.Run(s.Name()+"/ref", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				wire[0] ^= uint64(i)
				sinkData = ref.extractRef(wire)
			}
		})
		b.Run(s.Name()+"/fast", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				wire[0] ^= uint64(i)
				sinkData = s.ExtractData(wire)
			}
		})
	}
}
