package fleet

import "hbm2ecc/internal/fleet/xid"

// Policy turns a node's rolling event window into a predicted-failure
// score and a remediation decision. The score is a weighted sum of
// window counts — the weights encode how strongly each code predicts
// imminent SDC/DUE trouble, roughly the taxonomy's severity ladder on
// a log scale (a corrected error is noise; an uncontained error is
// nearly dispositive).
type Policy struct {
	// Weights is each taxonomy code's per-event score contribution,
	// by window column (see byColumn).
	Weights []float64
	// DrainScore and RetireScore are the action thresholds. A node at
	// or above DrainScore is drained; at or above RetireScore (or
	// carrying an event whose remediation is RemedRetire) it is
	// retired. Drain < Retire.
	DrainScore  float64
	RetireScore float64
	// MaxDrains is the strikes rule: a node already drained (and
	// repaired) this many times is retired on its next strike instead
	// of drained again — repair clearly is not fixing it.
	MaxDrains int
}

// policy is the tuned policy every coordinator runs.
var policy = Policy{
	Weights: byColumn(map[int]float64{
		xid.ContainedECC:     0.1,
		xid.RowRemapRecorded: 2,
		xid.HighSBERate:      5,
		xid.DoubleBitECC:     20,
		xid.UncontainedECC:   50,
		xid.RowRemapFailure:  200,
		xid.OffTheBus:        1000,
	}),
	DrainScore:  40,
	RetireScore: 200,
	MaxDrains:   3,
}

// byColumn lays a code -> weight table out by window column.
func byColumn(weights map[int]float64) []float64 {
	out := make([]float64, len(codes))
	for code, w := range weights {
		out[column(code)] = w
	}
	return out
}

// Score computes the predicted-failure score of one window's
// per-column counts, summed in column (ascending code) order.
func (p *Policy) Score(counts []int) float64 {
	s := 0.0
	for col, n := range counts {
		s += p.Weights[col] * float64(n)
	}
	return s
}

// Decide maps a score and the agent's own recommendation to the
// coordinator command for the node ("", CommandDrain, CommandRetire).
// An agent that recommends drain or retire gets at least that command.
func (p *Policy) Decide(score float64, agentRecommend xid.Remediation) string {
	if agentRecommend == xid.RemedRetire {
		return CommandRetire
	}
	switch {
	case score >= p.RetireScore:
		return CommandRetire
	case score >= p.DrainScore:
		return CommandDrain
	case agentRecommend == xid.RemedDrain:
		return CommandDrain
	default:
		return ""
	}
}

// Quality is the policy-quality accounting: how many silent data
// corruptions the policy's removals avoided, at what capacity cost.
// The simulator owns the ground truth (it knows which events were SDCs
// even though agents cannot see them) and fills this in.
type Quality struct {
	// SDCTotal counts ground-truth SDC events the fault process
	// generated over the run.
	SDCTotal int `json:"sdc_total"`
	// SDCAvoided counts SDCs that landed on a node after the policy
	// had taken it out of service — corruption that never reached a
	// workload.
	SDCAvoided int `json:"sdc_avoided"`
	// SDCSuffered counts SDCs on in-service nodes.
	SDCSuffered int `json:"sdc_suffered"`
	// AvoidedFrac is SDCAvoided / SDCTotal (0 when no SDCs occurred).
	AvoidedFrac float64 `json:"sdc_avoided_frac"`
	// NodeHours is the fleet's total simulated capacity;
	// LostNodeHours the part the policy gave up (drained or retired
	// in-service time, excluding nodes that were dead anyway).
	NodeHours     float64 `json:"node_hours"`
	LostNodeHours float64 `json:"lost_node_hours"`
	// CapacityLostFrac is LostNodeHours / NodeHours.
	CapacityLostFrac float64 `json:"capacity_lost_frac"`
	// Drained and Retired count policy actions taken.
	Drained int `json:"drained"`
	Retired int `json:"retired"`
	// AvoidedPerPctCapacity is the headline trade: SDCs avoided per
	// percentage point of capacity spent (0 when no capacity was
	// spent).
	AvoidedPerPctCapacity float64 `json:"sdc_avoided_per_pct_capacity"`
}

// Finalize derives the ratio fields from the raw counts.
func (q *Quality) Finalize() {
	if q.SDCTotal > 0 {
		q.AvoidedFrac = float64(q.SDCAvoided) / float64(q.SDCTotal)
	}
	if q.NodeHours > 0 {
		q.CapacityLostFrac = q.LostNodeHours / q.NodeHours
	}
	if pct := q.CapacityLostFrac * 100; pct > 0 {
		q.AvoidedPerPctCapacity = float64(q.SDCAvoided) / pct
	}
}
