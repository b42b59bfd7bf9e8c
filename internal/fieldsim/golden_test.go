package fieldsim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"hbm2ecc/internal/fleet"
)

// TestRunFleetGoldenDigest pins the exact FleetResult of two runs
// against the in-process coordinator, so any change to how frames
// reach the coordinator must reproduce the ledger byte for byte.
//
// "reduced" is perfbench's reduced fleet_run config, and its digest
// equals perfbench's fleet_run/reduced/0 pin. "refusing" keeps the
// default crash reporting and a node table smaller than the fleet, so
// crash reports and frames the coordinator refuses are locked too.
func TestRunFleetGoldenDigest(t *testing.T) {
	for _, tc := range []struct {
		name     string
		cfg      FleetConfig
		maxNodes int
		digest   string
	}{
		{
			name:     "reduced",
			cfg:      FleetConfig{Nodes: 400, Hours: 96, Accel: 2000, CrashReportProb: 1e-12, Seed: 2021},
			maxNodes: 464,
			digest:   "de95ca6ce5d6830d3efd611618b282a2a581e0acbacc00c286687f7c9aa8158e",
		},
		{
			name:     "refusing",
			cfg:      FleetConfig{Nodes: 60, Hours: 96, Accel: 50_000, CrashFITPerNode: 5e6, Seed: 7},
			maxNodes: 45,
			digest:   "bc843d88ab272540e129aacb13488526fb7a28db3e278e0956da744d58cbe9e7",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			coord := fleet.NewCoordinator(fleet.CoordinatorOptions{MaxNodes: tc.maxNodes})
			res, err := RunFleet(context.Background(), tc.cfg, coord.Loopback())
			if err != nil {
				t.Fatal(err)
			}
			raw, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(raw)
			if got := hex.EncodeToString(sum[:]); got != tc.digest {
				t.Errorf("FleetResult digest %s, pinned %s\n%s", got, tc.digest, raw)
			}
			if tc.cfg.Nodes > tc.maxNodes && (res.Outbox.Rejected == 0 || res.Crashes == res.SilentCrashes) {
				t.Errorf("%d refused frames, %d of %d crashes silent: the run locks no refusal or crash report",
					res.Outbox.Rejected, res.SilentCrashes, res.Crashes)
			}
		})
	}
}
