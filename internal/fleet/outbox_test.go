package fleet

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"hbm2ecc/internal/httpx"
)

// scriptedReporter fails sends while down, delivering to a real
// coordinator otherwise.
type scriptedReporter struct {
	coord *Coordinator
	down  bool
	calls int
}

func (s *scriptedReporter) Report(_ context.Context, req ReportRequest) (ReportResponse, error) {
	s.calls++
	if s.down {
		return ReportResponse{}, errors.New("scripted: coordinator unreachable")
	}
	return s.coord.Report(req)
}

func outboxFrames(n int) []ReportRequest {
	out := make([]ReportRequest, n)
	for i := range out {
		out[i] = report("n1", uint64(i+1), float64(i+1), due("n1", float64(i+1), int64(i)))
	}
	return out
}

func TestOutboxBuffersThroughOutageAndCatchesUp(t *testing.T) {
	rep := &scriptedReporter{coord: NewCoordinator(CoordinatorOptions{})}
	var acked []uint64
	box := NewOutbox(rep, OutboxOptions{
		OnAck: func(req ReportRequest, resp ReportResponse) {
			if resp.Duplicate {
				t.Errorf("fresh frame seq %d acked duplicate", req.Seq)
			}
			acked = append(acked, req.Seq)
		},
	})
	ctx := context.Background()
	frames := outboxFrames(6)

	// Outage: everything buffers, nothing acks.
	rep.down = true
	at := 1.0
	for _, f := range frames[:4] {
		box.Enqueue(f)
		if err := box.Flush(ctx, at); err != nil {
			t.Fatal(err)
		}
		at++
	}
	if box.Len() != 4 || len(acked) != 0 {
		t.Fatalf("during outage: queue %d acked %d", box.Len(), len(acked))
	}
	if !box.Backlogged() {
		t.Fatal("outbox does not know it is backlogged")
	}

	// Heal; the next ungated flush drains everything in order, then new
	// frames flow straight through.
	rep.down = false
	at += backoffMaxHours + 1 // clear any backoff gate
	box.Enqueue(frames[4])
	if err := box.Flush(ctx, at); err != nil {
		t.Fatal(err)
	}
	box.Enqueue(frames[5])
	if err := box.Flush(ctx, at+1); err != nil {
		t.Fatal(err)
	}
	if box.Len() != 0 {
		t.Fatalf("queue not drained: %d", box.Len())
	}
	want := []uint64{1, 2, 3, 4, 5, 6}
	if len(acked) != len(want) {
		t.Fatalf("acked %v, want %v", acked, want)
	}
	for i := range want {
		if acked[i] != want[i] {
			t.Fatalf("acked %v out of order, want %v", acked, want)
		}
	}
	if st := box.Stats(); st.Sent != 6 || st.Drops != 0 || st.Failures == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestOutboxBackoffGatesProbes(t *testing.T) {
	rep := &scriptedReporter{coord: NewCoordinator(CoordinatorOptions{}), down: true}
	box := NewOutbox(rep, OutboxOptions{})
	ctx := context.Background()
	box.Enqueue(outboxFrames(1)[0])
	if err := box.Flush(ctx, 1); err != nil {
		t.Fatal(err)
	}
	probes := rep.calls
	if probes != 1 {
		t.Fatalf("first flush made %d probes", probes)
	}
	// Sub-gate flushes must not probe at all: the backoff gate sits at
	// least backoffBaseHours/2 away (jitter floor).
	for at := 1.05; at < 1+backoffBaseHours/2; at += 0.05 {
		if err := box.Flush(ctx, at); err != nil {
			t.Fatal(err)
		}
	}
	if rep.calls != probes {
		t.Fatalf("gated flushes probed the dead coordinator %d extra times", rep.calls-probes)
	}
	// Far past the gate a probe happens again.
	if err := box.Flush(ctx, 50); err != nil {
		t.Fatal(err)
	}
	if rep.calls != probes+1 {
		t.Fatalf("post-gate flush made %d probes, want 1 more", rep.calls-probes)
	}
}

func TestOutboxShedsOldestOnOverflow(t *testing.T) {
	rep := &scriptedReporter{coord: NewCoordinator(CoordinatorOptions{}), down: true}
	var acked []uint64
	box := NewOutbox(rep, OutboxOptions{
		OnAck: func(req ReportRequest, _ ReportResponse) { acked = append(acked, req.Seq) },
	})
	ctx := context.Background()
	for _, f := range outboxFrames(outboxMax + 6) {
		box.Enqueue(f)
	}
	if box.Len() != outboxMax {
		t.Fatalf("queue %d, want bound %d", box.Len(), outboxMax)
	}
	if st := box.Stats(); st.Drops != 6 {
		t.Fatalf("drops = %d, want 6", st.Drops)
	}
	rep.down = false
	if err := box.Flush(ctx, 100); err != nil {
		t.Fatal(err)
	}
	// The newest outboxMax frames survived: seqs 7..outboxMax+6.
	var want []uint64
	for seq := uint64(7); seq <= outboxMax+6; seq++ {
		want = append(want, seq)
	}
	if len(acked) != len(want) {
		t.Fatalf("acked %v, want %v", acked, want)
	}
	for i := range want {
		if acked[i] != want[i] {
			t.Fatalf("acked %v, want %v", acked, want)
		}
	}
}

func TestOutboxRedeliveryIsExactlyOnceInEffect(t *testing.T) {
	// A lost ack: the coordinator ingests the frame but the send
	// "fails". The outbox redelivers; the coordinator acks the
	// duplicate without double-ingesting.
	coord := NewCoordinator(CoordinatorOptions{})
	lostAck := true
	rep := reporterFunc(func(ctx context.Context, req ReportRequest) (ReportResponse, error) {
		resp, err := coord.Report(req)
		if err == nil && lostAck {
			lostAck = false
			return ReportResponse{}, errors.New("ack lost in transit")
		}
		return resp, err
	})
	dups := 0
	box := NewOutbox(rep, OutboxOptions{OnAck: func(_ ReportRequest, resp ReportResponse) {
		if resp.Duplicate {
			dups++
		}
	}})
	ctx := context.Background()
	box.Enqueue(report("n1", 1, 1, due("n1", 1, 3)))
	if err := box.Flush(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if box.Len() != 1 {
		t.Fatal("frame with lost ack left the queue")
	}
	if err := box.Flush(ctx, 100); err != nil {
		t.Fatal(err)
	}
	if box.Len() != 0 || dups != 1 {
		t.Fatalf("queue %d, duplicate acks %d (want 0, 1)", box.Len(), dups)
	}
	f := coord.Fleet(10)
	if len(f.Ranked) != 1 || f.Ranked[0].Events != 1 {
		t.Fatalf("double-ingest after redelivery: %+v", f.Ranked)
	}
}

type reporterFunc func(context.Context, ReportRequest) (ReportResponse, error)

func (f reporterFunc) Report(ctx context.Context, req ReportRequest) (ReportResponse, error) {
	return f(ctx, req)
}

func TestOutboxDropsPoisonFrames(t *testing.T) {
	for _, tc := range []struct {
		name string
		rep  Reporter
	}{
		{"http-4xx", reporterFunc(func(context.Context, ReportRequest) (ReportResponse, error) {
			return ReportResponse{}, &httpx.StatusError{Code: 400, Body: "bad frame"}
		})},
		// The in-process coordinator refuses the frames below (an event
		// later than its report) as permanently as its HTTP surface does.
		{"loopback", NewCoordinator(CoordinatorOptions{}).Loopback()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			box := NewOutbox(tc.rep, OutboxOptions{})
			box.Enqueue(report("n1", 1, 1, due("n1", 5, 0)))
			box.Enqueue(report("n1", 2, 2, due("n1", 9, 0)))
			if err := box.Flush(context.Background(), 1); err != nil {
				t.Fatal(err)
			}
			if box.Len() != 0 {
				t.Fatalf("poison frames wedged the queue: %d", box.Len())
			}
			if st := box.Stats(); st.Rejected != 2 || st.Sent != 0 || st.Failures != 0 {
				t.Fatalf("stats = %+v", st)
			}
		})
	}
}

func TestOutboxPropagatesContextCancellation(t *testing.T) {
	rep := reporterFunc(func(ctx context.Context, _ ReportRequest) (ReportResponse, error) {
		return ReportResponse{}, ctx.Err()
	})
	box := NewOutbox(rep, OutboxOptions{})
	box.Enqueue(report("n1", 1, 1))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := box.Flush(ctx, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestOutboxBackoffIsDeterministic(t *testing.T) {
	gates := func() []float64 {
		rep := &scriptedReporter{coord: NewCoordinator(CoordinatorOptions{}), down: true}
		box := NewOutbox(rep, OutboxOptions{Seed: 5})
		box.Enqueue(report("n1", 1, 1))
		var out []float64
		at := 0.0
		for i := 0; i < 10; i++ {
			at = box.gateAt + 0.001
			if err := box.Flush(context.Background(), at); err != nil {
				t.Fatal(err)
			}
			out = append(out, box.gateAt)
		}
		return out
	}
	a, b := gates(), gates()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("gate %d: %v vs %v across identically seeded outboxes", i, a, b)
		}
	}
	// Delays grow toward the cap and never exceed at + MaxHours.
	for i := 1; i < len(a); i++ {
		if a[i]-a[i-1] > backoffMaxHours+0.002 {
			t.Fatalf("backoff exceeded cap: %v", a)
		}
	}
}

// TestRetryPolicyBackoff checks the retry backoff schedule: each
// attempt's delay stays inside the jittered envelope of a doubling from
// base, and the cap holds once the doubling passes it.
func TestRetryPolicyBackoff(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for attempt := 1; attempt < 4; attempt++ {
		d := backoff(rng, attempt, 1e-6, 1e-3)
		base := 1e-6
		for i := 1; i < attempt; i++ {
			base *= 2
		}
		if d < base*0.5 || d > base*1.5 {
			t.Fatalf("attempt %d delay %g outside [%g,%g]", attempt, d, base*0.5, base*1.5)
		}
	}
	for attempt := 10; attempt < 40; attempt++ {
		if d := backoff(rng, attempt, 1e-6, 1e-3); d < 0.5e-3 || d > 1e-3 {
			t.Fatalf("attempt %d delay %g outside the capped envelope [5e-4,1e-3]", attempt, d)
		}
	}
}

func TestRetryPolicyDeterministicJitter(t *testing.T) {
	a := rand.New(rand.NewSource(42))
	b := rand.New(rand.NewSource(42))
	for attempt := 1; attempt < 8; attempt++ {
		da, db := backoff(a, attempt, 1e-6, 1e-3), backoff(b, attempt, 1e-6, 1e-3)
		if da != db {
			t.Fatalf("attempt %d: jitter not deterministic (%g vs %g)", attempt, da, db)
		}
	}
}
