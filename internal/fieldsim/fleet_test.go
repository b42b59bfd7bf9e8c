package fieldsim

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"hbm2ecc/internal/fleet"
)

func smallFleet() FleetConfig {
	return FleetConfig{
		Nodes: 60,
		Hours: 96,
		Accel: 50_000, // compress months of field time into a testable run
		Seed:  7,
	}
}

func TestRunFleetInvariants(t *testing.T) {
	// crash-heavy: most nodes fall off the bus mid-run and every crash
	// gets its final report out, so crash reports race the tick's
	// soft-error events on the same node.
	crashy := smallFleet()
	crashy.CrashFITPerNode, crashy.CrashReportProb = 5e7, 1
	for _, tc := range []struct {
		name string
		cfg  FleetConfig
	}{{"default", smallFleet()}, {"crash-heavy", crashy}} {
		t.Run(tc.name, func(t *testing.T) {
			coord := fleet.NewCoordinator(fleet.CoordinatorOptions{})
			res, err := RunFleet(context.Background(), tc.cfg, coord.Loopback())
			if err != nil {
				t.Fatal(err)
			}
			if res.RawEvents == 0 {
				t.Fatal("no events simulated; acceleration too low for the test to mean anything")
			}
			if res.DCE+res.DUE+res.SDC != res.RawEvents {
				t.Errorf("outcome classes %d+%d+%d != raw %d", res.DCE, res.DUE, res.SDC, res.RawEvents)
			}
			q := res.Quality
			if q.SDCTotal != res.SDC {
				t.Errorf("quality SDC total %d != simulated SDC %d", q.SDCTotal, res.SDC)
			}
			if q.SDCAvoided+q.SDCSuffered != q.SDCTotal {
				t.Errorf("avoided %d + suffered %d != total %d", q.SDCAvoided, q.SDCSuffered, q.SDCTotal)
			}
			if want := float64(60 * 96); q.NodeHours != want {
				t.Errorf("node hours = %v, want %v", q.NodeHours, want)
			}
			if q.LostNodeHours < 0 || q.LostNodeHours > q.NodeHours {
				t.Errorf("lost node hours %v outside [0, %v]", q.LostNodeHours, q.NodeHours)
			}
			if res.Reports == 0 || res.XidEvents == 0 {
				t.Errorf("pipeline carried %d reports / %d events, want > 0", res.Reports, res.XidEvents)
			}
			// The in-process coordinator accepts every frame.
			if ob := res.Outbox; ob.Sent != ob.Enqueued || ob.Sent != res.Reports || ob.Rejected != 0 {
				t.Errorf("coordinator acknowledged %d of %d frames (%d reports, %d rejected)",
					ob.Sent, ob.Enqueued, res.Reports, ob.Rejected)
			}
			// The coordinator saw the fleet.
			if f := coord.Fleet(1); f.Total != 60 || f.SimHours <= 0 {
				t.Errorf("coordinator tracks %d nodes at hour %v, want 60 at a positive hour", f.Total, f.SimHours)
			}
			if tc.name == "crash-heavy" {
				if res.Crashes < tc.cfg.Nodes/2 || res.SilentCrashes != 0 {
					t.Errorf("%d crashes (%d silent), want most of %d nodes, all reported",
						res.Crashes, res.SilentCrashes, tc.cfg.Nodes)
				}
				return
			}
			// At this acceleration the policy must have acted on the
			// bad-apple tail; every command corresponds to simulator-side
			// bookkeeping.
			if q.Drained+q.Retired == 0 {
				t.Error("policy never acted despite heavy acceleration")
			}
		})
	}
}

func TestRunFleetDeterministic(t *testing.T) {
	run := func() FleetResult {
		t.Helper()
		coord := fleet.NewCoordinator(fleet.CoordinatorOptions{})
		res, err := RunFleet(context.Background(), smallFleet(), coord.Loopback())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same config, different results:\n%+v\n%+v", a, b)
	}
}

func TestRunFleetCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	coord := fleet.NewCoordinator(fleet.CoordinatorOptions{})
	if _, err := RunFleet(ctx, smallFleet(), coord.Loopback()); err == nil {
		t.Fatal("cancelled run returned nil error")
	}
}

// cancellingReporter cancels the run's context on its nth frame and
// fails that frame with the context error, as a reporter whose caller
// gave up mid-flight does.
type cancellingReporter struct {
	inner  fleet.Reporter
	cancel context.CancelFunc
	n      *int
}

func (r cancellingReporter) Report(ctx context.Context, req fleet.ReportRequest) (fleet.ReportResponse, error) {
	if *r.n--; *r.n == 0 {
		r.cancel()
		return fleet.ReportResponse{}, ctx.Err()
	}
	return r.inner.Report(ctx, req)
}

// TestRunFleetStopsOnContextError: a frame failing because the context
// ended stops the run with that error; it is not counted as refused.
func TestRunFleetStopsOnContextError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n := 50
	rep := cancellingReporter{inner: fleet.NewCoordinator(fleet.CoordinatorOptions{}).Loopback(), cancel: cancel, n: &n}
	res, err := RunFleet(ctx, smallFleet(), rep)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ob := res.Outbox; ob.Enqueued != 50 || ob.Sent != 49 || ob.Rejected != 0 {
		t.Errorf("ledger %+v, want 50 frames handed over, 49 acknowledged, none refused", ob)
	}
}

func TestRunFleetConfigValidation(t *testing.T) {
	coord := fleet.NewCoordinator(fleet.CoordinatorOptions{})
	if _, err := RunFleet(context.Background(), FleetConfig{Hours: 10}, coord.Loopback()); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := RunFleet(context.Background(), FleetConfig{Nodes: 10}, coord.Loopback()); err == nil {
		t.Error("zero hours accepted")
	}
}

func TestRateClassAssignment(t *testing.T) {
	var frac float64
	for _, c := range rateClasses {
		frac += c.frac
	}
	if frac < 0.999 || frac > 1.001 {
		t.Fatalf("rate class fractions sum to %v", frac)
	}
	// Class populations over 1000 nodes are exact, not sampled.
	counts := map[float64]int{}
	for i := 0; i < 1000; i++ {
		counts[multFor(i, 1000)]++
	}
	if counts[1] != 900 || counts[8] != 70 || counts[40] != 25 || counts[250] != 5 {
		t.Errorf("class populations = %v, want 900/70/25/5", counts)
	}
}

// BenchmarkRunFleet plays one full-size round per iteration at
// perfbench's fleet_run config (10k nodes × 720 h at 2000×, every crash
// silent, seed 2021) against a fresh in-memory coordinator, and reports
// the coordinator reports each round carries.
func BenchmarkRunFleet(b *testing.B) {
	cfg := FleetConfig{Nodes: 10_000, Hours: 720, Accel: 2000, CrashReportProb: 1e-12, Seed: 2021}
	var reports int64
	for i := 0; i < b.N; i++ {
		coord := fleet.NewCoordinator(fleet.CoordinatorOptions{MaxNodes: cfg.Nodes + 64})
		res, err := RunFleet(context.Background(), cfg, coord.Loopback())
		if err != nil {
			b.Fatal(err)
		}
		reports += res.Reports
	}
	b.ReportMetric(float64(reports)/float64(b.N), "reports/op")
}
