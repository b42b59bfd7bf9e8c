package fieldsim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"hbm2ecc/internal/fleet"
)

// TestRunFleetGoldenDigest pins the exact FleetResult of three runs
// against the in-process coordinator, so any change to how frames
// reach the coordinator, or to the simulator's own bookkeeping, must
// reproduce the ledger byte for byte.
//
// "reduced" is perfbench's reduced fleet_run config, and its digest
// equals perfbench's fleet_run/reduced/0 pin. "refusing" keeps the
// default crash reporting and a node table smaller than the fleet, so
// crash reports and frames the coordinator refuses are locked too.
// "churn" runs long enough for nodes to cycle drain → repair → drain
// until the strikes rule retires them, with reported and silent
// crashes, so the in-service and removed counts, the repair queue and
// the lost-capacity sum are locked through every transition.
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
		{
			name:     "churn",
			cfg:      FleetConfig{Nodes: 60, Hours: 240, Accel: 5000, CrashFITPerNode: 2e6, Seed: 11},
			maxNodes: 60,
			digest:   "659fe14a8eb932054c8bdcc3c88d8e38ce45d51e61b7c47972e7afb4af4ae861",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			coord := fleet.NewCoordinator(fleet.CoordinatorOptions{MaxNodes: tc.maxNodes})
			cmds := newCommandLog(coord.Loopback())
			res, err := RunFleet(context.Background(), tc.cfg, cmds)
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
			if tc.name == "churn" && (cmds.redrained() == 0 || cmds.struckOut == 0 || res.SilentCrashes == 0 || res.Crashes == res.SilentCrashes) {
				t.Errorf("%d nodes drained again after a repair, %d retired after %d drains, %d of %d crashes silent: the run must lock each transition",
					cmds.redrained(), cmds.struckOut, strikes, res.SilentCrashes, res.Crashes)
			}
		})
	}
}

// strikes is the coordinator policy's MaxDrains: a node drained this
// many times is retired on its next strike.
const strikes = 3

// commandLog passes frames to inner and tallies the commands that come
// back: the drains each node was sent (frames of one report share its
// hour, so a drain is counted once per hour), and the nodes retired
// after strikes drains.
type commandLog struct {
	inner     fleet.Reporter
	drains    map[string]int
	lastDrain map[string]float64
	retired   map[string]bool
	struckOut int
}

func newCommandLog(inner fleet.Reporter) *commandLog {
	return &commandLog{inner: inner, drains: map[string]int{}, lastDrain: map[string]float64{}, retired: map[string]bool{}}
}

func (l *commandLog) Report(ctx context.Context, req fleet.ReportRequest) (fleet.ReportResponse, error) {
	resp, err := l.inner.Report(ctx, req)
	if err != nil {
		return resp, err
	}
	switch resp.Command {
	case fleet.CommandDrain:
		if at, ok := l.lastDrain[req.NodeID]; !ok || at != req.AtHours {
			l.drains[req.NodeID]++
			l.lastDrain[req.NodeID] = req.AtHours
		}
	case fleet.CommandRetire:
		if !l.retired[req.NodeID] {
			l.retired[req.NodeID] = true
			if l.drains[req.NodeID] >= strikes {
				l.struckOut++
			}
		}
	}
	return resp, nil
}

// redrained counts the nodes drained more than once.
func (l *commandLog) redrained() int {
	n := 0
	for _, d := range l.drains {
		if d > 1 {
			n++
		}
	}
	return n
}
