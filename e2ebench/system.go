package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/planner"
	"repro/internal/service"
	"repro/internal/shard"
)

// meshEpoch gives every fleet set-up of the process its own mesh epoch,
// so a closed mesh's straggling redial is refused by the handshake of the
// next set-up, which may reuse its ports.
var meshEpoch atomic.Uint64

// system is one running instance of the system under test, served over
// loopback HTTP from this process.
type system struct {
	url       string // where clients send requests
	engineURL string // the HTTP API of the engine that answers queries
	engine    *service.Engine
	workers   []*shard.Worker
	// live is a planner calibrated at set-up the way camcd's engine start
	// calibrates it, beside the engine running on pinned models;
	// calibrate is how long that calibration took.
	live      *planner.Planner
	calibrate time.Duration

	servers []*http.Server
	serving sync.WaitGroup
}

// startSystem brings up w's system. With a tracer, every HTTP handler of
// the system is wrapped in its timing middleware.
func startSystem(w *workload, tr *tracer) (*system, error) {
	s := &system{}
	if !w.fleet {
		s.engine = service.NewEngine(w.svc)
		t0 := time.Now()
		s.live = planner.New(planner.ModeStatic)
		if err := s.live.CalibrateBuiltins(s.engine.Stats().MaxProcessors); err != nil {
			s.close()
			return nil, fmt.Errorf("planner calibration: %w", err)
		}
		s.calibrate = time.Since(t0)
		url, err := s.serve(tr.wrap("service", service.NewHandler(s.engine)))
		if err != nil {
			s.close()
			return nil, err
		}
		s.url, s.engineURL = url, url
		return s, nil
	}
	if err := s.startFleet(w, tr); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// startFleet brings up a 2-rank shard: both workers join a loopback TCP
// mesh concurrently (each blocks until the mesh is complete), serve their
// HTTP APIs, and a frontend routes to them.
func (s *system) startFleet(w *workload, tr *tracer) error {
	const p = 2
	lns := make([]net.Listener, p)
	addrs := make([]string, p)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return err
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	s.workers = make([]*shard.Worker, p)
	errs := make([]error, p)
	epoch := meshEpoch.Add(1)
	var wg sync.WaitGroup
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.workers[i], errs[i] = shard.NewWorker(shard.WorkerConfig{
				Rank: i, Addrs: addrs, Epoch: epoch, Listener: lns[i], Service: w.svc, PhiThreshold: w.meshPhi,
			})
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("fleet mesh: %w", err)
	}
	urls := make([]string, p)
	for i, wk := range s.workers {
		url, err := s.serve(tr.wrap(fmt.Sprintf("worker%d", i), wk.Handler()))
		if err != nil {
			return err
		}
		urls[i] = url
	}
	for _, wk := range s.workers {
		if err := waitReady(wk); err != nil {
			return err
		}
	}
	fe, err := shard.NewFrontend([][]string{urls})
	if err != nil {
		return err
	}
	s.url, err = s.serve(tr.wrap("frontend", fe.Handler()))
	s.engineURL = urls[0]
	return err
}

// waitReady blocks until a worker reports its mesh connected and caught
// up, or fails after 10 s.
func waitReady(wk *shard.Worker) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := wk.Ready()
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("worker rank %d not ready: %w", wk.Rank(), err)
		}
		time.Sleep(time.Millisecond)
	}
}

func (s *system) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	s.servers = append(s.servers, srv)
	s.serving.Add(1)
	go func() {
		defer s.serving.Done()
		_ = srv.Serve(ln) // always ErrServerClosed after close
	}()
	return "http://" + ln.Addr().String(), nil
}

// close stops the HTTP servers, then the workers or engine, and waits for
// every serving goroutine to return.
func (s *system) close() {
	for i := len(s.servers) - 1; i >= 0; i-- {
		s.servers[i].Close()
	}
	s.serving.Wait()
	for _, wk := range s.workers {
		if wk != nil {
			wk.Close()
		}
	}
	if s.engine != nil {
		s.engine.Close()
	}
}
