package evalmc

import (
	"hbm2ecc/internal/campaign"
	"hbm2ecc/internal/errormodel"
)

// Checkpoint accumulates completed (scheme, pattern) cells of an
// evaluation, keyed by scheme name and pattern String(). Lookup and
// Store have the Options.Resume and Options.Progress signatures.
type Checkpoint = campaign.Checkpoint[Echo, errormodel.Pattern, PatternResult]

// Echo is the part of Options that shapes a cell's result: a checkpoint
// taken under one echo is never resumed under another. Shards fixes the
// sampler stream split and OnDie the error transform.
type Echo struct {
	Seed         int64  `json:"seed"`
	Samples3b    int    `json:"samples_3b"`
	SamplesBeat  int    `json:"samples_beat"`
	SamplesEntry int    `json:"samples_entry"`
	Shards       int    `json:"shards"`
	OnDie        string `json:"ondie,omitempty"`
}

// Echo returns the (defaulted) options' checkpoint echo.
func (o Options) Echo() Echo {
	o.defaults()
	return Echo{Seed: o.Seed, Samples3b: o.Samples3b, SamplesBeat: o.SamplesBeat,
		SamplesEntry: o.SamplesEntry, Shards: o.Shards, OnDie: o.OnDie}
}

// NewCheckpoint builds an empty checkpoint valid for opts.
func NewCheckpoint(opts Options) *Checkpoint {
	return campaign.NewCheckpoint[Echo, errormodel.Pattern, PatternResult](opts.Echo())
}

// LoadCheckpoint reads a checkpoint written by Save.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	return campaign.Load[Echo, errormodel.Pattern, PatternResult](path)
}
