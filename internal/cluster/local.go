package cluster

import (
	"context"
	"fmt"
	"log"
	"net"
	"strconv"
	"sync"

	"hbm2ecc/internal/evalmc"
	"hbm2ecc/internal/httpx"
)

// Local is the one in-process distributed campaign: a coordinator
// served over HTTP with embedded worker goroutines speaking the real
// wire protocol. campaignd's coordinator mode and the scaling benchmark
// both run on it — the same engine as a multi-machine deployment, with
// any further workers joining through BaseURL.
type Local struct {
	Coordinator *Coordinator
	Workers     []*Worker

	baseURL string
	srv     *httpx.Daemon
	cancel  context.CancelFunc
	wg      sync.WaitGroup
}

// StartLocal serves copts's coordinator on addr (":0" picks a free
// port) through the campaignd daemon bootstrap and starts n >= 0
// embedded workers against it. With n = 0 the campaign only progresses
// as external workers join. Callers must Wait (or cancel ctx) before
// reading results. Worker errors are logged as they happen.
func StartLocal(ctx context.Context, addr string, copts CoordinatorOptions, n int, wopts WorkerOptions) (*Local, error) {
	if n < 0 {
		return nil, fmt.Errorf("cluster: negative worker count %d", n)
	}
	coord, err := NewCoordinator(copts)
	if err != nil {
		return nil, err
	}
	runCtx, cancel := context.WithCancel(ctx)
	srv, err := httpx.StartDaemon(runCtx, "campaignd", addr, coord.Handler(), MaxFrame)
	if err != nil {
		cancel()
		return nil, err
	}
	// Embedded workers dial the bound port; a wildcard bind is reached
	// over loopback.
	bound := srv.Addr().(*net.TCPAddr)
	host := bound.IP.String()
	if bound.IP.IsUnspecified() {
		host = "127.0.0.1"
	}
	l := &Local{
		Coordinator: coord,
		baseURL:     "http://" + net.JoinHostPort(host, strconv.Itoa(bound.Port)),
		srv:         srv,
		cancel:      cancel,
	}
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		coord.Run(runCtx)
	}()
	for i := 0; i < n; i++ {
		wo := wopts
		if wo.ID == "" {
			wo.ID = fmt.Sprintf("local-%d", i)
		} else {
			wo.ID = fmt.Sprintf("%s-%d", wo.ID, i)
		}
		wo.BaseURL = l.baseURL
		w, err := NewWorker(wo)
		if err != nil {
			l.stop()
			return nil, err
		}
		l.Workers = append(l.Workers, w)
	}
	for _, w := range l.Workers {
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			if err := w.Run(runCtx); err != nil && runCtx.Err() == nil {
				log.Printf("embedded worker %s: %v", w.ID(), err)
			}
		}()
	}
	return l, nil
}

// BaseURL returns the coordinator address external workers join
// through.
func (l *Local) BaseURL() string { return l.baseURL }

// stop cancels the engine, waits for the workers and the sweeper, and
// drains the server, logging a failed drain.
func (l *Local) stop() {
	l.cancel()
	l.wg.Wait()
	if err := l.srv.Wait(); err != nil {
		log.Printf("campaignd server: %v", err)
	}
}

// Wait blocks until the campaign completes or ctx is cancelled, then
// tears the server and workers down and returns the merged results.
func (l *Local) Wait(ctx context.Context) ([]evalmc.SchemeResult, error) {
	select {
	case <-l.Coordinator.Done():
	case <-ctx.Done():
	}
	l.stop()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := l.Coordinator.Err(); err != nil {
		return nil, err
	}
	return l.Coordinator.Results()
}

// RunLocal is the one-call convenience: StartLocal on a free loopback
// port + Wait.
func RunLocal(ctx context.Context, copts CoordinatorOptions, n int, wopts WorkerOptions) ([]evalmc.SchemeResult, *Coordinator, error) {
	l, err := StartLocal(ctx, "127.0.0.1:0", copts, n, wopts)
	if err != nil {
		return nil, nil, err
	}
	res, err := l.Wait(ctx)
	return res, l.Coordinator, err
}
