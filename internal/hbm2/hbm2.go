// Package hbm2 models the geometry of the HBM2 memory on a compute-class
// GPU (§2.4): stacks of eight 512MB channels, 16 banks per channel, 32
// subarrays per bank with a 2KB row buffer each, and 32 data mats (+4 ECC
// mats) per subarray, each mat a 512×512 cell array contributing an 8b
// slice of every access. The address mapping and the mat structure are
// what make mat-local faults appear as byte-aligned errors and give
// multi-entry events their breadth.
package hbm2

import "fmt"

// Geometry constants for one GPU's HBM2 memory subsystem.
const (
	ChannelsPerStack  = 8
	BanksPerChannel   = 16
	SubarraysPerBank  = 32
	RowsPerSubarray   = 512 // mat height
	ColumnsPerRow     = 64  // 2KB row / 32B entry
	DataMatsPerSubarr = 32  // 8b slice each -> 32B entry
	ECCMatsPerSubarr  = 4   // 8b slice each -> 4B check bits
	EntryBytes        = 32  // data bytes per entry (ECC held in ECC mats)
	RowBytes          = 2048

	// Bit-field widths of the entry index (see EntryIndex).
	channelBits  = 3
	stackBits    = 3
	bankBits     = 4
	columnBits   = 6
	subarrayBits = 5
	rowBits      = 9
)

// Config sizes a simulated GPU memory. Stacks scales total capacity; the
// default V100-class configuration is 8 stacks = 32GB.
type Config struct {
	Stacks int
}

// V100 returns the paper's device-under-test configuration: 32GB of HBM2.
func V100() Config { return Config{Stacks: 8} }

// Entries returns the total number of 32B memory entries.
func (c Config) Entries() int64 {
	return int64(c.Stacks) * ChannelsPerStack * BanksPerChannel *
		SubarraysPerBank * RowsPerSubarray * ColumnsPerRow
}

// Bytes returns the total data capacity in bytes.
func (c Config) Bytes() int64 { return c.Entries() * EntryBytes }

// Coord locates one 32B entry in the device hierarchy.
type Coord struct {
	Stack    int
	Channel  int
	Bank     int
	Subarray int
	Row      int
	Column   int
}

// EntryIndex packs a Coord into a linear entry index. Consecutive entries
// stripe across channels first (GPU memory controllers interleave at fine
// granularity for bandwidth), then stacks, banks, columns, subarrays, rows:
//
//	| row(9) | subarray(5) | column(6) | bank(4) | stack(3) | channel(3) |
func (c Config) EntryIndex(co Coord) int64 {
	idx := int64(co.Row)
	idx = idx<<subarrayBits | int64(co.Subarray)
	idx = idx<<columnBits | int64(co.Column)
	idx = idx<<bankBits | int64(co.Bank)
	idx = idx<<stackBits | int64(co.Stack)
	idx = idx<<channelBits | int64(co.Channel)
	return idx
}

// CoordOf unpacks a linear entry index.
func (c Config) CoordOf(idx int64) Coord {
	var co Coord
	co.Channel = int(idx & (1<<channelBits - 1))
	idx >>= channelBits
	co.Stack = int(idx & (1<<stackBits - 1))
	idx >>= stackBits
	co.Bank = int(idx & (1<<bankBits - 1))
	idx >>= bankBits
	co.Column = int(idx & (1<<columnBits - 1))
	idx >>= columnBits
	co.Subarray = int(idx & (1<<subarrayBits - 1))
	idx >>= subarrayBits
	co.Row = int(idx)
	return co
}

// Valid reports whether the coordinate is inside the configured device.
func (c Config) Valid(co Coord) bool {
	return co.Stack >= 0 && co.Stack < c.Stacks &&
		co.Channel >= 0 && co.Channel < ChannelsPerStack &&
		co.Bank >= 0 && co.Bank < BanksPerChannel &&
		co.Subarray >= 0 && co.Subarray < SubarraysPerBank &&
		co.Row >= 0 && co.Row < RowsPerSubarray &&
		co.Column >= 0 && co.Column < ColumnsPerRow
}

func (co Coord) String() string {
	return fmt.Sprintf("stk%d.ch%d.ba%d.sa%d.row%d.col%d",
		co.Stack, co.Channel, co.Bank, co.Subarray, co.Row, co.Column)
}

// MatOfByte returns which data mat feeds data byte b (0..31) of an entry.
// Logically-contiguous bytes map directly to the 8b mats (§5), so the mat
// index equals the byte index — the structural fact behind byte-aligned
// errors. Byte b of an entry belongs to 64b word b/8.
func MatOfByte(b int) int { return b }

// WordOfByte returns the 64b word (0..3) containing data byte b.
func WordOfByte(b int) int { return b / 8 }

// RowKey collapses an entry index to a key identifying its DRAM row
// (clearing the column field): all 64 entries of one row share a key.
// Row retirement operates at this granularity.
func (c Config) RowKey(idx int64) int64 {
	const colShift = channelBits + stackBits + bankBits
	return idx &^ ((1<<columnBits - 1) << colShift)
}

// BankKey collapses an entry index to a key identifying its bank (the
// stack/channel/bank fields), the blast radius of a dead-bank fault.
func (c Config) BankKey(idx int64) int64 {
	return idx & (1<<(channelBits+stackBits+bankBits) - 1)
}

// SameRowEntries returns the entry indices sharing co's row buffer (all 64
// columns of the row), the blast radius of subarray- and wordline-level
// faults.
func (c Config) SameRowEntries(co Coord) []int64 {
	out := make([]int64, 0, ColumnsPerRow)
	for col := 0; col < ColumnsPerRow; col++ {
		cc := co
		cc.Column = col
		out = append(out, c.EntryIndex(cc))
	}
	return out
}
