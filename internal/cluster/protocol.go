// Package cluster is the distributed campaign engine: a coordinator
// that partitions a Monte-Carlo ECC evaluation into independent
// (scheme, pattern) cells and leases them over a small JSON/HTTP wire
// protocol to workers, which execute them with the batch decoder fast
// path and stream results back.
//
// Every cell draws from its own deterministic sampler stream (see
// evalmc.EvaluateCell), so cells can be computed in any order, by any
// worker, more than once — and the merged result is bit-identical to a
// sequential single-process evaluation with the same spec. That
// property is what makes the ugly parts tractable: an expired lease is
// simply re-queued, a duplicate completion is resolved by equality, a
// killed coordinator resumes from its checkpoint without re-running
// finished cells.
//
// Wire protocol (all POST bodies and responses are single JSON
// documents, bounded by MaxFrame):
//
//	POST /v1/lease    LeaseRequest    -> LeaseResponse
//	POST /v1/complete CompleteRequest -> CompleteResponse
//	GET  /v1/status                   -> StatusResponse
//	GET  /metrics                     -> Prometheus text (obs registry)
//	GET  /healthz                     -> liveness + campaign progress
package cluster

import (
	"bytes"
	"errors"
	"fmt"

	"hbm2ecc/internal/bitvec"
	"hbm2ecc/internal/core"
	"hbm2ecc/internal/errormodel"
	"hbm2ecc/internal/evalmc"
	"hbm2ecc/internal/httpx"
)

// Wire-protocol bounds. Frames beyond these are rejected at decode
// time, before any allocation proportional to attacker-controlled
// sizes.
const (
	// ProtocolVersion is echoed in lease responses; workers refuse to
	// run cells from a coordinator speaking a different version.
	ProtocolVersion = 1
	// MaxFrame bounds any single wire frame or checkpoint envelope.
	MaxFrame = 1 << 20
	// MaxSchemes bounds the campaign scheme list.
	MaxSchemes = 64
	// MaxSamples bounds per-class Monte-Carlo sample counts.
	MaxSamples = 1 << 30
	// MaxShards bounds the per-cell sampler stream split.
	MaxShards = 1024
	// MaxLeaseCells bounds how many cells one lease request may claim.
	MaxLeaseCells = 64
	// MaxWorkerID bounds worker identifier length.
	MaxWorkerID = 128
)

// CheckpointSchema tags coordinator checkpoint envelopes. v2 wraps the
// campaign engine's checkpoint format ({"config":…,"results":…}).
const CheckpointSchema = "hbm2ecc/cluster_checkpoint/v2"

// Spec describes one campaign: the scheme corpus and the exact
// evaluation parameters. Two runs with equal specs produce bit-identical
// merged results, regardless of worker count or machine.
type Spec struct {
	// Schemes are Table-2 row labels resolvable by core.SchemeByName,
	// in merge order.
	Schemes []string `json:"schemes"`
	// Seed is the campaign-wide sampler seed.
	Seed int64 `json:"seed"`
	// Samples3b, SamplesBeat, SamplesEntry are the per-class sample
	// counts for the non-enumerable pattern classes.
	Samples3b    int `json:"samples_3b"`
	SamplesBeat  int `json:"samples_beat"`
	SamplesEntry int `json:"samples_entry"`
	// Shards pins the sampler stream split inside each sampled cell
	// (>=1). Shards=1 makes the campaign bit-identical to the
	// sequential golden evaluation.
	Shards int `json:"shards"`
	// Data is the protected payload: absent (nil) for the all-zero
	// payload, else exactly bitvec.DataBytes bytes.
	Data []byte `json:"data,omitempty"`
}

// Validate checks the spec against the wire-protocol bounds and the
// scheme registry.
func (s Spec) Validate() error {
	if len(s.Schemes) == 0 {
		return errors.New("cluster: spec has no schemes")
	}
	if len(s.Schemes) > MaxSchemes {
		return fmt.Errorf("cluster: spec has %d schemes (max %d)", len(s.Schemes), MaxSchemes)
	}
	seen := make(map[string]bool, len(s.Schemes))
	for _, name := range s.Schemes {
		if _, err := core.SchemeByName(name); err != nil {
			return err
		}
		if seen[name] {
			return fmt.Errorf("cluster: duplicate scheme %q", name)
		}
		seen[name] = true
	}
	for _, n := range [...]int{s.Samples3b, s.SamplesBeat, s.SamplesEntry} {
		if n < 1 || n > MaxSamples {
			return fmt.Errorf("cluster: sample count %d out of range [1, %d]", n, MaxSamples)
		}
	}
	if s.Shards < 1 || s.Shards > MaxShards {
		return fmt.Errorf("cluster: shards %d out of range [1, %d]", s.Shards, MaxShards)
	}
	if s.Data != nil && len(s.Data) != bitvec.DataBytes {
		return fmt.Errorf("cluster: data payload is %d bytes, want %d", len(s.Data), bitvec.DataBytes)
	}
	return nil
}

// Options translates the spec into evaluator options (shared by worker
// execution and checkpoint compatibility checks).
func (s Spec) Options() evalmc.Options {
	opts := evalmc.Options{
		Seed:         s.Seed,
		Samples3b:    s.Samples3b,
		SamplesBeat:  s.SamplesBeat,
		SamplesEntry: s.SamplesEntry,
		Shards:       s.Shards,
	}
	copy(opts.Data[:], s.Data)
	return opts
}

// NumCells returns the size of the campaign's cell grid.
func (s Spec) NumCells() int { return len(s.Schemes) * int(errormodel.NumPatterns) }

// Cell returns cell id's descriptor. Cell ids enumerate the grid
// scheme-major: id = schemeIndex*NumPatterns + pattern.
func (s Spec) Cell(id int) (Cell, error) {
	if id < 0 || id >= s.NumCells() {
		return Cell{}, fmt.Errorf("cluster: cell id %d out of range [0, %d)", id, s.NumCells())
	}
	np := int(errormodel.NumPatterns)
	return Cell{
		ID:      id,
		Scheme:  s.Schemes[id/np],
		Pattern: id % np,
	}, nil
}

// Equal reports whether two specs describe the same campaign.
func (s Spec) Equal(o *Spec) bool {
	if s.Seed != o.Seed || s.Samples3b != o.Samples3b || s.SamplesBeat != o.SamplesBeat ||
		s.SamplesEntry != o.SamplesEntry || s.Shards != o.Shards ||
		len(s.Schemes) != len(o.Schemes) || !bytes.Equal(s.Data, o.Data) {
		return false
	}
	for i := range s.Schemes {
		if s.Schemes[i] != o.Schemes[i] {
			return false
		}
	}
	return true
}

// Cell identifies one (scheme, pattern) unit of work.
type Cell struct {
	ID      int    `json:"id"`
	Scheme  string `json:"scheme"`
	Pattern int    `json:"pattern"`
}

// Validate checks the descriptor's internal consistency against spec.
func (c *Cell) Validate(spec *Spec) error {
	want, err := spec.Cell(c.ID)
	if err != nil {
		return err
	}
	if *c != want {
		return fmt.Errorf("cluster: cell %d descriptor %+v does not match spec (%+v)", c.ID, *c, want)
	}
	return nil
}

// PatternP returns the cell's pattern class.
func (c *Cell) PatternP() errormodel.Pattern { return errormodel.Pattern(c.Pattern) }

// LeaseRequest asks the coordinator for up to MaxCells cells.
type LeaseRequest struct {
	WorkerID string `json:"worker_id"`
	// MaxCells caps how many cells this response may lease (1 when
	// zero; bounded by MaxLeaseCells).
	MaxCells int `json:"max_cells,omitempty"`
	// Seq numbers the worker's lease requests (0 = unnumbered). A
	// request repeating the worker's last Seq is a redelivery — a
	// duplicated packet or a retry after a lost response — and gets the
	// answer already given instead of fresh cells.
	Seq uint64 `json:"seq,omitempty"`
}

// Validate checks the request's wire bounds.
func (r *LeaseRequest) Validate() error {
	if err := validWorkerID(r.WorkerID); err != nil {
		return err
	}
	if r.MaxCells < 0 || r.MaxCells > MaxLeaseCells {
		return fmt.Errorf("cluster: max_cells %d out of range [0, %d]", r.MaxCells, MaxLeaseCells)
	}
	return nil
}

func validWorkerID(id string) error {
	if id == "" {
		return errors.New("cluster: empty worker id")
	}
	if len(id) > MaxWorkerID {
		return fmt.Errorf("cluster: worker id longer than %d bytes", MaxWorkerID)
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if c < 0x21 || c > 0x7e {
			return fmt.Errorf("cluster: worker id contains byte %#x (printable ASCII only)", c)
		}
	}
	return nil
}

// Lease grants one cell to one worker until the TTL elapses.
type Lease struct {
	// ID names the grant; completions must echo it so late results from
	// expired leases are recognized.
	ID string `json:"id"`
	// Cell is the leased unit of work.
	Cell Cell `json:"cell"`
	// TTLMS is how long the worker has before the coordinator re-queues
	// the cell, in milliseconds.
	TTLMS int64 `json:"ttl_ms"`
}

// LeaseResponse answers a lease request. Exactly one of Leases,
// Wait, Done, or Evicted describes the worker's next move.
type LeaseResponse struct {
	// Version is the coordinator's protocol version.
	Version int `json:"version"`
	// Spec is the campaign spec (sent with every grant so a worker can
	// join mid-campaign with no other handshake).
	Spec *Spec `json:"spec,omitempty"`
	// Leases are the granted cells.
	Leases []Lease `json:"leases,omitempty"`
	// Wait tells the worker nothing is leasable right now (everything
	// pending is leased out); retry after RetryMS.
	Wait    bool  `json:"wait,omitempty"`
	RetryMS int64 `json:"retry_ms,omitempty"`
	// Done tells the worker the campaign is complete (or failed).
	Done bool `json:"done,omitempty"`
	// Evicted tells the worker the coordinator no longer trusts it; it
	// must not request further leases.
	Evicted bool `json:"evicted,omitempty"`
}

// Validate checks a lease response (worker side) against wire bounds.
func (r *LeaseResponse) Validate() error {
	if r.Version != ProtocolVersion {
		return fmt.Errorf("cluster: protocol version %d, want %d", r.Version, ProtocolVersion)
	}
	if len(r.Leases) > MaxLeaseCells {
		return fmt.Errorf("cluster: %d leases in one response (max %d)", len(r.Leases), MaxLeaseCells)
	}
	if len(r.Leases) > 0 {
		if r.Spec == nil {
			return errors.New("cluster: lease grant without a campaign spec")
		}
		if err := r.Spec.Validate(); err != nil {
			return err
		}
		for i := range r.Leases {
			l := &r.Leases[i]
			if l.ID == "" || len(l.ID) > MaxWorkerID {
				return fmt.Errorf("cluster: lease %d has invalid id", i)
			}
			if err := l.Cell.Validate(r.Spec); err != nil {
				return err
			}
		}
	}
	return nil
}

// CompleteRequest submits one finished cell.
type CompleteRequest struct {
	WorkerID string `json:"worker_id"`
	LeaseID  string `json:"lease_id"`
	Cell     Cell   `json:"cell"`
	// Result is the cell's outcome counts. Its Pattern must match the
	// cell and its counts must be internally consistent.
	Result evalmc.PatternResult `json:"result"`
	// ElapsedNS is the worker's wall time on the cell (throughput
	// accounting only; never trusted for scheduling).
	ElapsedNS int64 `json:"elapsed_ns"`
}

// Validate checks the completion against wire bounds and the result's
// internal consistency. The coordinator additionally checks the counts
// against the spec's expected trial totals.
func (r *CompleteRequest) Validate() error {
	if err := validWorkerID(r.WorkerID); err != nil {
		return err
	}
	if r.LeaseID == "" || len(r.LeaseID) > MaxWorkerID {
		return errors.New("cluster: invalid lease id")
	}
	if r.Cell.Pattern < 0 || r.Cell.Pattern >= int(errormodel.NumPatterns) {
		return fmt.Errorf("cluster: cell pattern %d out of range", r.Cell.Pattern)
	}
	res := &r.Result
	if int(res.Pattern) != r.Cell.Pattern {
		return fmt.Errorf("cluster: result pattern %d does not match cell pattern %d", res.Pattern, r.Cell.Pattern)
	}
	if res.N < 0 || res.N > MaxSamples || res.DCE < 0 || res.DUE < 0 || res.SDC < 0 {
		return errors.New("cluster: negative or oversized result counts")
	}
	if res.DCE+res.DUE+res.SDC != res.N {
		return fmt.Errorf("cluster: result counts %d+%d+%d != N=%d", res.DCE, res.DUE, res.SDC, res.N)
	}
	if r.ElapsedNS < 0 {
		return errors.New("cluster: negative elapsed time")
	}
	return nil
}

// CompleteResponse acknowledges a completion.
type CompleteResponse struct {
	// Accepted means the result was recorded (or matched the already-
	// recorded result for this cell).
	Accepted bool `json:"accepted"`
	// Duplicate means the cell had already been completed; with
	// Accepted, the results were bit-identical (the expected case for
	// a re-run deterministic cell).
	Duplicate bool `json:"duplicate,omitempty"`
	// Stale means the submitting lease had expired or been superseded;
	// the result was still usable.
	Stale bool `json:"stale,omitempty"`
	// Done mirrors LeaseResponse.Done so a completing worker learns the
	// campaign finished without another round trip.
	Done bool `json:"done,omitempty"`
}

// WorkerStatus is one worker's coordinator-side accounting.
type WorkerStatus struct {
	ID           string  `json:"id"`
	Completed    int     `json:"completed"`
	Trials       int64   `json:"trials"`
	BusyNS       int64   `json:"busy_ns"`
	TrialsPerSec float64 `json:"trials_per_sec"`
	Failures     int     `json:"failures"`
	Evicted      bool    `json:"evicted,omitempty"`
}

// StatusResponse is the coordinator's progress snapshot (GET /v1/status).
type StatusResponse struct {
	Version       int            `json:"version"`
	Spec          Spec           `json:"spec"`
	Pending       int            `json:"pending"`
	Leased        int            `json:"leased"`
	Done          int            `json:"done"`
	Total         int            `json:"total"`
	Campaign      string         `json:"campaign"` // "running" | "done" | "failed"
	Failure       string         `json:"failure,omitempty"`
	Requeues      uint64         `json:"requeues"`
	Conflicts     uint64         `json:"conflicts"`
	Evictions     uint64         `json:"evictions"`
	OldestLeaseMS int64          `json:"oldest_lease_ms"`
	Workers       []WorkerStatus `json:"workers,omitempty"`
}

// Envelope is the coordinator's checkpoint: the spec it is valid for
// plus the completed cells. A coordinator restarted with -resume
// verifies the spec echo, marks the completed cells done, and continues
// leasing the remainder.
type Envelope struct {
	Schema    string             `json:"schema"`
	Spec      Spec               `json:"spec"`
	Completed *evalmc.Checkpoint `json:"completed"`
}

// Validate checks the envelope schema, spec, and the consistency of the
// completed-cell map with the spec.
func (e *Envelope) Validate() error {
	if e.Schema != CheckpointSchema {
		return fmt.Errorf("cluster: checkpoint schema %q, want %q", e.Schema, CheckpointSchema)
	}
	if err := e.Spec.Validate(); err != nil {
		return err
	}
	if e.Completed == nil {
		return errors.New("cluster: checkpoint envelope has no completed map")
	}
	if err := e.Completed.Compatible(e.Spec.Options().Echo()); err != nil {
		return err
	}
	known := make(map[string]bool, len(e.Spec.Schemes))
	for _, s := range e.Spec.Schemes {
		known[s] = true
	}
	for scheme, cells := range e.Completed.Results {
		if !known[scheme] {
			return fmt.Errorf("cluster: checkpoint covers scheme %q not in spec", scheme)
		}
		if len(cells) > int(errormodel.NumPatterns) {
			return fmt.Errorf("cluster: checkpoint has %d cells for scheme %q", len(cells), scheme)
		}
	}
	return nil
}

// decodeStrict unmarshals exactly one JSON document under the MaxFrame
// bound, rejecting unknown fields and trailing garbage — the shared
// front door for every wire frame, locked by the codec fuzz targets.
func decodeStrict(data []byte, v any) error {
	return httpx.DecodeStrict("cluster", data, v, MaxFrame)
}

// DecodeLeaseRequest decodes and validates a lease request frame.
func DecodeLeaseRequest(data []byte) (LeaseRequest, error) {
	var r LeaseRequest
	if err := decodeStrict(data, &r); err != nil {
		return LeaseRequest{}, err
	}
	if err := r.Validate(); err != nil {
		return LeaseRequest{}, err
	}
	return r, nil
}

// DecodeLeaseResponse decodes and validates a lease response frame.
func DecodeLeaseResponse(data []byte) (LeaseResponse, error) {
	var r LeaseResponse
	if err := decodeStrict(data, &r); err != nil {
		return LeaseResponse{}, err
	}
	if err := r.Validate(); err != nil {
		return LeaseResponse{}, err
	}
	return r, nil
}

// DecodeCompleteRequest decodes and validates a completion frame.
func DecodeCompleteRequest(data []byte) (CompleteRequest, error) {
	var r CompleteRequest
	if err := decodeStrict(data, &r); err != nil {
		return CompleteRequest{}, err
	}
	if err := r.Validate(); err != nil {
		return CompleteRequest{}, err
	}
	return r, nil
}

// DecodeEnvelope decodes and validates a checkpoint envelope.
func DecodeEnvelope(data []byte) (*Envelope, error) {
	var e Envelope
	if err := decodeStrict(data, &e); err != nil {
		return nil, err
	}
	if err := e.Validate(); err != nil {
		return nil, err
	}
	return &e, nil
}
