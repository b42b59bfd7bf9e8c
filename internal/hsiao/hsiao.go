// Package hsiao constructs the minimum-odd-weight (72,64) SEC-DED code
// used as the paper's binary ECC baseline ("(72,64) SEC-DED version 1",
// after Hsiao 1970) and implements its encoder and decoder.
//
// The construction uses all 56 weight-3 columns plus 8 weight-5 columns for
// the 64 data bits, and the 8 weight-1 identity columns for the check bits.
// The weight-5 columns are chosen by exact search so that every row of H
// has weight exactly 27 (216 total ones / 8 rows), the minimum-odd-weight
// balance that minimizes the widest encoder XOR tree.
package hsiao

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"

	"hbm2ecc/internal/bitvec"
	"hbm2ecc/internal/ecc"
	"hbm2ecc/internal/gf2"
)

// TargetRowWeight is the balanced per-row weight of the (72,64) Hsiao code.
const TargetRowWeight = 27

// columns memoizes the deterministic column search, which costs about a
// millisecond per run; New still builds a fresh H72 from the result, so
// no mutable state is shared between codes.
var columns = sync.OnceValues(buildColumns)

// New constructs the (72,64) minimum-odd-weight Hsiao code.
func New() *Code {
	cols, err := columns()
	if err != nil {
		panic(fmt.Sprintf("hsiao: construction failed: %v", err))
	}
	h, err := gf2.NewH72(cols)
	if err != nil {
		panic(fmt.Sprintf("hsiao: invalid H: %v", err))
	}
	return &Code{H: h, lut: h.SyndromeLUT()}
}

// buildColumns selects the 72 columns of the Hsiao H matrix.
func buildColumns() ([gf2.N]uint8, error) {
	var cols [gf2.N]uint8

	// Data columns: all 56 weight-3 columns in ascending numeric order.
	w3 := make([]uint8, 0, 56)
	w5 := make([]uint8, 0, 56)
	for v := 1; v < 256; v++ {
		switch bits.OnesCount8(uint8(v)) {
		case 3:
			w3 = append(w3, uint8(v))
		case 5:
			w5 = append(w5, uint8(v))
		}
	}
	sort.Slice(w3, func(i, j int) bool { return w3[i] < w3[j] })
	sort.Slice(w5, func(i, j int) bool { return w5[i] < w5[j] })

	// Rows already carry 1 (identity) + 21 (weight-3 membership) = 22 ones.
	// Pick 8 weight-5 columns covering each row exactly 5 more times.
	pick, ok := pickBalanced(w5, 8, 5)
	if !ok {
		return cols, fmt.Errorf("no balanced weight-5 selection found")
	}

	idx := 0
	for _, c := range w3 {
		cols[idx] = c
		idx++
	}
	for _, c := range pick {
		cols[idx] = c
		idx++
	}
	if idx != gf2.K {
		return cols, fmt.Errorf("expected %d data columns, got %d", gf2.K, idx)
	}
	for r := 0; r < gf2.R; r++ {
		cols[gf2.K+r] = 1 << uint(r)
	}
	return cols, nil
}

// pickBalanced finds need columns from pool such that each of the 8 rows is
// covered exactly perRow times, by depth-first search. The pool is scanned
// in order, so the result is deterministic.
func pickBalanced(pool []uint8, need, perRow int) ([]uint8, bool) {
	var chosen []uint8
	var rows [8]int
	var dfs func(start int) bool
	dfs = func(start int) bool {
		if len(chosen) == need {
			for _, w := range rows {
				if w != perRow {
					return false
				}
			}
			return true
		}
		for i := start; i < len(pool); i++ {
			c := pool[i]
			ok := true
			for r := 0; r < 8; r++ {
				if c>>uint(r)&1 != 0 && rows[r]+1 > perRow {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			for r := 0; r < 8; r++ {
				if c>>uint(r)&1 != 0 {
					rows[r]++
				}
			}
			chosen = append(chosen, c)
			if dfs(i + 1) {
				return true
			}
			chosen = chosen[:len(chosen)-1]
			for r := 0; r < 8; r++ {
				if c>>uint(r)&1 != 0 {
					rows[r]--
				}
			}
		}
		return false
	}
	if dfs(0) {
		return chosen, true
	}
	return nil, false
}

// Code is a (72,64) Hsiao SEC-DED code: encoder plus single-codeword
// decoder. It is safe for concurrent use after construction.
type Code struct {
	H   *gf2.H72
	lut [256]int16
}

// Encode returns the systematic codeword for 64 data bits.
func (c *Code) Encode(data uint64) bitvec.V72 { return c.H.Codeword(data) }

// Decode decodes one received codeword. On a zero syndrome it reports
// ecc.OK; on a syndrome matching a column it corrects that bit and reports
// ecc.Corrected with the bit position; any other syndrome is ecc.Detected
// (position -1).
func (c *Code) Decode(w bitvec.V72) (bitvec.V72, ecc.Status, int) {
	s := c.H.Syndrome(w)
	if s == 0 {
		return w, ecc.OK, -1
	}
	if j := c.lut[s]; j >= 0 {
		return w.FlipBit(int(j)), ecc.Corrected, int(j)
	}
	return w, ecc.Detected, -1
}

// Syndrome exposes the raw syndrome of a received word.
func (c *Code) Syndrome(w bitvec.V72) uint8 { return c.H.Syndrome(w) }

// Profile tallies decode outcomes over an error-weight class (see
// MiscorrectionProfile).
type Profile struct {
	// Corrected counts errors the decoder removed exactly; Miscorrected
	// counts errors where a correction landed on a wrong bit (the decoded
	// word differs from the true one); Detected counts detect-and-flag
	// outcomes; Silent counts nonzero errors with a zero syndrome
	// (undetectable codeword-weight errors).
	Corrected, Miscorrected, Detected, Silent int
}

// Total returns the number of error patterns profiled.
func (p Profile) Total() int { return p.Corrected + p.Miscorrected + p.Detected + p.Silent }

// MiscorrectionProfile classifies the decode outcome of every weight-w
// 72-bit error pattern. By linearity the outcome depends only on the
// error, so the profile is computed on the zero codeword. For a Hsiao
// SEC-DED code: weight 1 is fully corrected, weight 2 fully detected
// (the DED guarantee — odd columns make every 2-bit syndrome even), and
// weight 3+ splits between miscorrection, detection, and (for codeword
// weights) silent passage. The on-die distortion tests reuse this as the
// miscorrection-class ground truth for the hsiao64 stage.
func (c *Code) MiscorrectionProfile(weight int) Profile {
	var p Profile
	var walk func(next, left int, e bitvec.V72)
	walk = func(next, left int, e bitvec.V72) {
		if left == 0 {
			got, status, _ := c.Decode(e)
			switch {
			case status == ecc.Detected:
				p.Detected++
			case got.IsZero() && status == ecc.Corrected:
				p.Corrected++
			case status == ecc.OK:
				p.Silent++
			default:
				p.Miscorrected++
			}
			return
		}
		for b := next; b <= 72-left; b++ {
			walk(b+1, left-1, e.FlipBit(b))
		}
	}
	walk(0, weight, bitvec.V72{})
	return p
}
