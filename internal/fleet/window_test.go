package fleet

import (
	"testing"

	"hbm2ecc/internal/fleet/xid"
)

// ringRef is the window without running sums: every total rescans all
// ring slots. It is the reference FuzzWindowVsRing holds window to.
type ringRef struct {
	hours  int
	index  map[int]int // code -> column
	bucket []int64     // current bucket's absolute hour
	counts [][]int     // [hour ring][code]
}

func newRingRef(hours int) *ringRef {
	r := &ringRef{
		hours:  hours,
		index:  make(map[int]int, len(codes)),
		bucket: make([]int64, hours),
		counts: make([][]int, hours),
	}
	for i, c := range codes {
		r.index[c] = i
	}
	for i := range r.counts {
		r.bucket[i] = -1
		r.counts[i] = make([]int, len(codes))
	}
	return r
}

func (r *ringRef) add(h int64, code, n int) {
	slot := int(h % int64(r.hours))
	if h < 0 {
		slot = 0
	}
	if r.bucket[slot] != h {
		r.bucket[slot] = h
		for i := range r.counts[slot] {
			r.counts[slot][i] = 0
		}
	}
	r.counts[slot][r.index[code]] += n
}

func (r *ringRef) total(h int64, code int) int {
	col := r.index[code]
	lo := h - int64(r.hours) + 1
	sum := 0
	for slot := 0; slot < r.hours; slot++ {
		if b := r.bucket[slot]; b >= lo && b <= h {
			sum += r.counts[slot][col]
		}
	}
	return sum
}

// FuzzWindowVsRing replays an arbitrary sequence of adds and queries on
// a window and on ringRef and requires every code's total to agree
// after each step. Each op is three bytes: the first picks add or query
// and the code, the second moves the hour by -128..127 from the last
// op's hour (so hours go negative, queries fall behind the last add, and
// moves of a whole window or more happen), the third is the add's count.
// The last four seeds reach the quiet-window jump: an add, then a
// quiet stretch longer than the window; quiet forward moves shorter than
// the window and of a whole window or more; a backward query that
// re-enters the old event (event at hour 10, reference hour 100, query
// at 55 on a 48-hour window); and an add behind the newest one, which
// must not make the window look quiet while the newer event is in it.
func FuzzWindowVsRing(f *testing.F) {
	f.Add(uint8(0), int16(0), []byte{0, 1, 1, 1, 0, 0, 2, 5, 3, 1, 24, 0})
	f.Add(uint8(1), int16(-3), []byte{0, 0, 1, 2, 1, 2, 1, 200, 0, 0, 60, 1, 1, 0xd0, 0, 0, 1, 1})
	f.Add(uint8(2), int16(40), []byte{4, 2, 3, 1, 0xfe, 0, 6, 1, 2, 1, 49, 0, 1, 0x80, 0, 3, 3, 3})
	f.Add(uint8(3), int16(-1), []byte{0, 0, 0, 2, 0, 1, 0, 1, 1, 1, 0xff, 0, 8, 0xff, 7})
	f.Add(uint8(4), int16(100), []byte{0, 0, 1, 1, 47, 0, 0, 1, 2, 1, 0x9c, 0, 0, 48, 1, 1, 0, 0})
	f.Add(uint8(0), int16(0), []byte{0, 0, 1, 1, 10, 0, 1, 30, 0, 1, 5, 0, 1, 100, 0, 2, 0, 2, 1, 1, 0, 1, 30, 0})
	f.Add(uint8(1), int16(5), []byte{6, 0, 3, 1, 60, 0, 1, 5, 0, 1, 48, 0, 1, 100, 0, 0, 1, 1, 1, 47, 0, 1, 1, 0, 1, 3, 0})
	f.Add(uint8(1), int16(10), []byte{0, 0, 0, 1, 90, 0, 1, 0xd3, 0, 1, 2, 0})
	f.Add(uint8(1), int16(50), []byte{0, 0, 0, 0, 0xd8, 0, 1, 60, 0, 1, 30, 0})
	sizes := []int{24, 48, 1, 2, 3}
	f.Fuzz(func(t *testing.T, size uint8, start int16, ops []byte) {
		hours := sizes[int(size)%len(sizes)]
		w, ref := newWindow(hours), newRingRef(hours)
		h := int64(start)
		for i := 0; i+2 < len(ops); i += 3 {
			h += int64(int8(ops[i+1]))
			if ops[i]&1 == 0 {
				code := codes[int(ops[i]>>1)%len(codes)]
				n := int(ops[i+2]%4) + 1
				w.add(h, code, n)
				ref.add(h, code, n)
				continue
			}
			for _, code := range codes {
				if got, want := w.total(h, code), ref.total(h, code); got != want {
					t.Fatalf("op %d: %d-hour window at hour %d: Xid %d total %d, ring scan %d",
						i/3, hours, h, code, got, want)
				}
			}
		}
	})
}

func TestWindowCountOutsideTaxonomy(t *testing.T) {
	a := NewAgent("n1", AgentOptions{})
	a.ObserveDUE(1, 5, false)
	if got := a.WindowCount(1, xid.DoubleBitECC); got != 1 {
		t.Fatalf("Xid 48 window count = %d, want 1", got)
	}
	for _, code := range []int{12345, 0, 47, 49, 96, -48} {
		if got := a.WindowCount(1, code); got != 0 {
			t.Errorf("WindowCount of Xid %d outside the taxonomy = %d, want 0", code, got)
		}
	}
}
