// Package classify post-processes microbenchmark mismatch logs the way the
// paper's beam-testing methodology does (§4, §5): it filters intermittent
// (displacement-damage) errors by flagging entries with repeated errors
// across write passes, clusters the remaining records into soft-error
// events by onset time, classifies each event's breadth and severity
// (SBSE/SBME/MBSE/MBME, byte-aligned or not), and derives the Table-1
// pattern probabilities.
package classify

import (
	"math/bits"
	"sort"

	"hbm2ecc/internal/bitvec"
	"hbm2ecc/internal/errormodel"
	"hbm2ecc/internal/hbm2"
	"hbm2ecc/internal/microbench"
	"hbm2ecc/internal/stats"
)

// EventClass is the paper's Fig. 4a breadth/severity taxonomy.
type EventClass int

const (
	// SBSE: single-bit, single-entry.
	SBSE EventClass = iota
	// SBME: single-bit, multiple-entry.
	SBME
	// MBSE: multiple-bit, single-entry.
	MBSE
	// MBME: multiple-bit, multiple-entry.
	MBME
	NumClasses
)

func (c EventClass) String() string {
	switch c {
	case SBSE:
		return "SBSE"
	case SBME:
		return "SBME"
	case MBSE:
		return "MBSE"
	case MBME:
		return "MBME"
	default:
		return "Class(?)"
	}
}

// EntryError is one entry's share of an event.
type EntryError struct {
	Entry int64
	// Mask is the data-visible error (wire layout, ECC area zero).
	Mask bitvec.V288
}

// Event is one clustered soft-error event.
type Event struct {
	Onset   float64
	Entries []EntryError
	Class   EventClass
	// ByteAligned: within every affected 64b word of every entry, the
	// error is confined to one aligned byte. Meaningful for multi-bit
	// events.
	ByteAligned bool
	// Pattern is the event's Table-1 class (most severe per-entry
	// pattern).
	Pattern errormodel.Pattern
}

// Breadth returns the number of affected entries.
func (e *Event) Breadth() int { return len(e.Entries) }

// MultiBit reports whether any entry has more than one erroneous bit.
func (e *Event) MultiBit() bool { return e.Class == MBSE || e.Class == MBME }

// Options tunes the pipeline.
type Options struct {
	// ClusterGap is the maximum onset gap between records of one event.
	// An event landing mid-read-pass is first observed across two
	// passes (entries already read that pass only mismatch on the next
	// one), so the gap must exceed two pass durations or broad events
	// split into fragments; with the default 0.05s pass it defaults to
	// 0.125s, still far below the beam's mean time to event.
	ClusterGap float64
	// DamageThreshold is the number of distinct write passes with errors
	// that marks an entry as damaged (intermittent). Default 2.
	DamageThreshold int
}

func (o *Options) defaults() {
	if o.ClusterGap == 0 {
		o.ClusterGap = 0.125
	}
	if o.DamageThreshold == 0 {
		o.DamageThreshold = 2
	}
}

// Direction tallies of intermittent errors (for the unidirectionality
// analysis of §4).
type Direction struct {
	OneToZero int
	ZeroToOne int
}

// Analysis is the pipeline output.
type Analysis struct {
	Events []Event
	// DamagedEntries are entries classified as intermittent and filtered.
	DamagedEntries map[int64]bool
	// IntermittentRecords counts filtered records.
	IntermittentRecords int
	// IntermittentDirection tallies bit-flip directions among filtered
	// records.
	IntermittentDirection Direction
	// DiscardedRuns counts logs dropped by the host-side checks.
	DiscardedRuns int
	TotalRuns     int
}

// Analyze runs the full pipeline over a set of microbenchmark logs.
func Analyze(logs []*microbench.Log, opts Options) *Analysis {
	opts.defaults()
	a := &Analysis{DamagedEntries: map[int64]bool{}}

	type recKey struct {
		run, writePass int
	}
	passesWithError := map[int64]map[recKey]bool{}
	var usable []*microbench.Log
	for i, log := range logs {
		a.TotalRuns++
		if log.Discarded {
			a.DiscardedRuns++
			continue
		}
		usable = append(usable, log)
		for _, r := range log.Records {
			m := passesWithError[r.Entry]
			if m == nil {
				m = map[recKey]bool{}
				passesWithError[r.Entry] = m
			}
			m[recKey{i, r.WritePass}] = true
		}
	}
	for entry, passes := range passesWithError {
		if len(passes) >= opts.DamageThreshold {
			a.DamagedEntries[entry] = true
		}
	}

	// Collect per-(run, writePass, entry) onsets of non-damaged entries,
	// tally intermittent directions for damaged ones.
	type onset struct {
		time  float64
		entry int64
		mask  bitvec.V288
	}
	var onsets []onset
	for _, log := range usable {
		type wpEntry struct {
			writePass int
			entry     int64
		}
		seen := map[wpEntry]bool{}
		for _, r := range log.Records {
			if a.DamagedEntries[r.Entry] {
				a.IntermittentRecords++
				tallyDirection(&a.IntermittentDirection, r)
				continue
			}
			k := wpEntry{r.WritePass, r.Entry}
			if seen[k] {
				continue
			}
			seen[k] = true
			onsets = append(onsets, onset{r.Time, r.Entry, errMask(r)})
		}
	}
	sort.Slice(onsets, func(i, j int) bool { return onsets[i].time < onsets[j].time })

	// Gap-based clustering into events.
	for i := 0; i < len(onsets); {
		j := i + 1
		for j < len(onsets) && onsets[j].time-onsets[j-1].time <= opts.ClusterGap {
			j++
		}
		ev := Event{Onset: onsets[i].time}
		for _, o := range onsets[i:j] {
			ev.Entries = append(ev.Entries, EntryError{Entry: o.entry, Mask: o.mask})
		}
		finishEvent(&ev)
		a.Events = append(a.Events, ev)
		i = j
	}
	return a
}

func tallyDirection(d *Direction, r microbench.Record) {
	for i := 0; i < hbm2.EntryBytes; i++ {
		diff := r.Expected[i] ^ r.Got[i]
		if diff == 0 {
			continue
		}
		for b := 0; b < 8; b++ {
			if diff>>uint(b)&1 == 0 {
				continue
			}
			if r.Expected[i]>>uint(b)&1 == 1 {
				d.OneToZero++
			} else {
				d.ZeroToOne++
			}
		}
	}
}

func errMask(r microbench.Record) bitvec.V288 {
	var xor [hbm2.EntryBytes]byte
	for i := range xor {
		xor[i] = r.Expected[i] ^ r.Got[i]
	}
	return bitvec.FromDataECC(xor, [4]byte{})
}

func finishEvent(ev *Event) {
	multi := false
	aligned := true
	worst := errormodel.Bit1
	for _, ee := range ev.Entries {
		n := ee.Mask.OnesCount()
		if n > 1 {
			multi = true
		}
		if !maskByteAligned(ee.Mask) {
			aligned = false
		}
		if p := errormodel.Classify(ee.Mask); p > worst {
			worst = p
		}
	}
	switch {
	case !multi && len(ev.Entries) == 1:
		ev.Class = SBSE
	case !multi:
		ev.Class = SBME
	case len(ev.Entries) == 1:
		ev.Class = MBSE
	default:
		ev.Class = MBME
	}
	ev.ByteAligned = aligned
	ev.Pattern = worst
}

// maskByteAligned reports whether, within every 64b word, the error bits
// are confined to a single aligned byte (the paper's byte-aligned error
// definition, Fig. 4c).
func maskByteAligned(m bitvec.V288) bool {
	for w := 0; w < bitvec.Beats; w++ {
		beat := m.Beat(w)
		if beat.IsZero() {
			continue
		}
		// The aligned byte holding the beat's lowest set bit: one of the
		// eight data bytes in Lo, or else the check byte, all of Hi.
		var lo, hi uint64 = 0, 0xFF
		if beat.Lo != 0 {
			lo, hi = 0xFF<<(bits.TrailingZeros64(beat.Lo)&^7), 0
		}
		if beat.Lo&^lo != 0 || beat.Hi&^hi != 0 {
			return false
		}
	}
	return true
}

// ClassBreakdown returns Fig. 4a: the fraction of events per class.
func (a *Analysis) ClassBreakdown() [NumClasses]stats.Proportion {
	var counts [NumClasses]int
	for _, ev := range a.Events {
		counts[ev.Class]++
	}
	var out [NumClasses]stats.Proportion
	for c := range out {
		out[c] = stats.NewProportion(counts[c], len(a.Events))
	}
	return out
}

// MBMEBreadth returns Fig. 4b: exponential-bin histogram of entries
// affected per MBME event, plus the maximum breadth.
func (a *Analysis) MBMEBreadth() (*stats.ExpBins, int) {
	max := 1
	for _, ev := range a.Events {
		if ev.Class == MBME && ev.Breadth() > max {
			max = ev.Breadth()
		}
	}
	bins := stats.NewExpBins(max)
	for _, ev := range a.Events {
		if ev.Class == MBME {
			bins.Add(ev.Breadth())
		}
	}
	return bins, max
}

// ByteAlignedFraction returns Fig. 4c's headline: the fraction of
// multi-bit events that are byte-aligned.
func (a *Analysis) ByteAlignedFraction() stats.Proportion {
	k, n := 0, 0
	for _, ev := range a.Events {
		if !ev.MultiBit() {
			continue
		}
		n++
		if ev.ByteAligned {
			k++
		}
	}
	return stats.NewProportion(k, n)
}

// WordsPerEntry returns, for multi-bit events of the given alignment, the
// distribution of affected 64b words per erroneous entry (Fig. 4c's
// stacked bars): index i holds the count of entries with i+1 affected
// words.
func (a *Analysis) WordsPerEntry(byteAligned bool) [4]int {
	var out [4]int
	for _, ev := range a.Events {
		if !ev.MultiBit() || ev.ByteAligned != byteAligned {
			continue
		}
		for _, ee := range ev.Entries {
			words := 0
			for w := 0; w < bitvec.Beats; w++ {
				if !ee.Mask.Beat(w).IsZero() {
					words++
				}
			}
			if words >= 1 {
				out[words-1]++
			}
		}
	}
	return out
}

// SeverityHistogram returns Fig. 5: for multi-bit events of the given
// alignment, a histogram of erroneous bits per affected word, and the
// count of full inversions (all 8 bits of a byte, or all 64 of a word).
func (a *Analysis) SeverityHistogram(byteAligned bool) (hist map[int]int, inversions, total int) {
	hist = map[int]int{}
	maxBits := 64
	if byteAligned {
		maxBits = 8
	}
	for _, ev := range a.Events {
		if !ev.MultiBit() || ev.ByteAligned != byteAligned {
			continue
		}
		for _, ee := range ev.Entries {
			for w := 0; w < bitvec.Beats; w++ {
				n := ee.Mask.Beat(w).OnesCount()
				if n == 0 {
					continue
				}
				hist[n]++
				total++
				if n == maxBits {
					inversions++
				}
			}
		}
	}
	return hist, inversions, total
}

// Table1 derives the measured per-event pattern probabilities, the
// analogue of the paper's Table 1.
func (a *Analysis) Table1() [errormodel.NumPatterns]stats.Proportion {
	var counts [errormodel.NumPatterns]int
	for _, ev := range a.Events {
		counts[ev.Pattern]++
	}
	var out [errormodel.NumPatterns]stats.Proportion
	for p := range out {
		out[p] = stats.NewProportion(counts[p], len(a.Events))
	}
	return out
}

// Table1Weights converts the measured per-pattern proportions to a
// weight vector usable with evalmc.SchemeResult.WeightedWith — e.g. to
// reweight scheme evaluations by a campaign observed through an on-die
// ECC stage instead of the paper's published Table 1.
func (a *Analysis) Table1Weights() [errormodel.NumPatterns]float64 {
	t := a.Table1()
	var out [errormodel.NumPatterns]float64
	for p := range out {
		out[p] = t[p].P
	}
	return out
}

// MultiBitFraction returns the share of events that are multi-bit
// (MBSE+MBME) — the §5 "~31.5% of SEUs affect multiple bits" headline is
// per-word; per-event the reproduction reports this figure.
func (a *Analysis) MultiBitFraction() stats.Proportion {
	k := 0
	for _, ev := range a.Events {
		if ev.MultiBit() {
			k++
		}
	}
	return stats.NewProportion(k, len(a.Events))
}
