package workload

import "hbm2ecc/internal/campaign"

// Checkpoint accumulates completed (scheme, kernel) cells of a workload
// campaign, keyed by scheme name and kernel name. Lookup and Store have
// the Options.Resume and Options.Progress signatures.
type Checkpoint = campaign.Checkpoint[Echo, Kernel, CellResult]

// Echo is the part of Options that shapes a cell's result: a checkpoint
// taken under one echo is never resumed under another.
type Echo struct {
	Seed int64 `json:"seed"`
	Runs int   `json:"runs"`
}

// Echo returns the (defaulted) options' checkpoint echo.
func (o Options) Echo() Echo {
	o.defaults()
	return Echo{Seed: o.Seed, Runs: o.Runs}
}

// NewCheckpoint builds an empty checkpoint valid for opts.
func NewCheckpoint(opts Options) *Checkpoint {
	return campaign.NewCheckpoint[Echo, Kernel, CellResult](opts.Echo())
}

// LoadCheckpoint reads a checkpoint written by Save.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	return campaign.Load[Echo, Kernel, CellResult](path)
}
