// Package server implements proteand: a long-lived daemon that accepts
// Scenario submissions from many concurrent clients over the
// length-prefixed binary protocol in internal/wire, multiplexes the
// jobs onto the shared in-process fleet runner, and streams progress
// events, results and metric snapshots back per connection.
//
// The daemon holds no state a client cannot reconstruct: a job is a
// Scenario run to a FleetResult, identified by a monotonically
// increasing id. Clients poll (Status), subscribe (Watch), cancel
// (Cancel) and retrieve (Result) over any connection — job ids are
// daemon-global, not per-connection. Writes to a client never block
// the simulation: each connection has a bounded write queue drained by
// one pump goroutine, and a slow reader sheds Event frames with a
// counted EventGap marker, mirroring the trace ring's
// counted-overwrite contract (lossy, never silently).
package server

import (
	"errors"
	"fmt"
	"net"
	"sync"

	"context"

	"protean"
	"protean/internal/obs"
	"protean/internal/wire"
)

// Config parameterizes a Server.
type Config struct {
	// Name identifies the daemon in HelloOK replies. Default "proteand".
	Name string
	// MaxActive bounds concurrently running scenario jobs; submissions
	// beyond it queue in arrival order. 0 means unbounded.
	MaxActive int
	// QueueDepth is the per-connection write queue length in frames.
	// Default 256. When full, Event frames are shed (with EventGap
	// markers); reply frames kill the connection instead.
	QueueDepth int
}

// ErrShutdown reports an operation against a draining server.
var ErrShutdown = errors.New("server: shutting down")

// ErrTraceOut rejects a submitted spec that sets trace_out: the path
// names a file on the daemon's host, and a remote client must not choose
// which file the daemon creates or truncates.
var ErrTraceOut = errors.New("server: trace_out names a daemon-side file; submitted specs must not set it")

// ErrWorkers rejects a submitted spec that sets workers: the field sizes
// a host-side goroutine pool, each worker building a full machine, and a
// remote client must not choose how much of the daemon's host one job
// takes.
var ErrWorkers = errors.New("server: workers sizes the daemon's host pool; submitted specs must not set it")

// Server is one proteand instance.
type Server struct {
	cfg Config
	reg *obs.Registry

	mSubmits  *obs.Counter
	mDone     *obs.Counter
	mFailed   *obs.Counter
	mCanceled *obs.Counter
	mDropped  *obs.Counter
	mConns    *obs.Counter
	mFrames   *obs.Counter
	gActive   *obs.Gauge
	gConns    *obs.Gauge

	baseCtx    context.Context
	baseCancel context.CancelFunc
	sem        chan struct{} // MaxActive slots; nil when unbounded

	mu        sync.Mutex
	jobs      map[uint64]*job
	nextID    uint64
	draining  bool
	listeners []net.Listener
	conns     []*conn

	jobWG  sync.WaitGroup
	connWG sync.WaitGroup
}

// New returns a server ready to Serve.
func New(cfg Config) *Server {
	if cfg.Name == "" {
		cfg.Name = "proteand"
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	s := &Server{
		cfg:  cfg,
		reg:  obs.NewRegistry(),
		jobs: map[uint64]*job{},
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	if cfg.MaxActive > 0 {
		s.sem = make(chan struct{}, cfg.MaxActive)
	}
	s.mSubmits = s.reg.Counter("proteand_submits_total", "scenario submissions accepted")
	s.mDone = s.reg.Counter("proteand_jobs_done_total", "jobs finished successfully")
	s.mFailed = s.reg.Counter("proteand_jobs_failed_total", "jobs finished with an error")
	s.mCanceled = s.reg.Counter("proteand_jobs_canceled_total", "jobs canceled before completion")
	s.mDropped = s.reg.Counter("proteand_events_dropped_total", "event frames shed to slow readers")
	s.mConns = s.reg.Counter("proteand_conns_total", "client connections accepted")
	s.mFrames = s.reg.Counter("proteand_frames_in_total", "request frames decoded")
	s.gActive = s.reg.Gauge("proteand_jobs_active", "jobs currently submitted and not finished")
	s.gConns = s.reg.Gauge("proteand_conns_active", "client connections currently open")
	return s
}

// Registry exposes the daemon's metrics registry, so an embedding
// process can add its own instruments to the same snapshot.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Serve accepts connections on l until the listener fails or Shutdown
// closes it. Call once per listener (proteand serves TCP and a unix
// socket concurrently); Serve returns nil on Shutdown.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		l.Close()
		return ErrShutdown
	}
	s.listeners = append(s.listeners, l)
	s.mu.Unlock()
	for {
		nc, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return nil
			}
			return err
		}
		c := newConn(s, nc)
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			nc.Close()
			return nil
		}
		s.conns = append(s.conns, c)
		s.mu.Unlock()
		s.mConns.Inc()
		s.gConns.Add(1)
		s.connWG.Add(1)
		go c.serve()
	}
}

// Shutdown drains the server: stop accepting connections, reject new
// submissions, wait for every running job to finish (delivering Done
// frames to watchers), then close client connections gracefully —
// queued reply frames are flushed before the sockets close.
func (s *Server) Shutdown() {
	s.mu.Lock()
	s.draining = true
	ls := append([]net.Listener(nil), s.listeners...)
	s.mu.Unlock()
	for _, l := range ls {
		l.Close()
	}
	s.jobWG.Wait()
	s.mu.Lock()
	cs := append([]*conn(nil), s.conns...)
	s.mu.Unlock()
	for _, c := range cs {
		c.shut(false)
	}
	s.connWG.Wait()
	s.baseCancel()
}

// startJob registers and launches one scenario job.
func (s *Server) startJob(sc protean.Scenario) (uint64, error) {
	// Host-side run settings are the daemon's to choose, never the
	// client's; refuse them before any job state exists.
	if sc.TraceOut != "" {
		return 0, ErrTraceOut
	}
	if sc.Workers != 0 {
		return 0, ErrWorkers
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return 0, ErrShutdown
	}
	s.nextID++
	id := s.nextID
	ctx, cancel := context.WithCancel(s.baseCtx)
	j := &job{id: id, srv: s, cancel: cancel, state: wire.StateRunning}
	s.jobs[id] = j
	s.jobWG.Add(1)
	s.mu.Unlock()
	s.mSubmits.Inc()
	s.gActive.Add(1)
	go s.runJob(ctx, cancel, j, sc)
	return id, nil
}

func (s *Server) runJob(ctx context.Context, cancel context.CancelFunc, j *job, sc protean.Scenario) {
	defer s.jobWG.Done()
	defer s.gActive.Add(-1)
	defer cancel()
	if s.sem != nil {
		s.sem <- struct{}{}
		defer func() { <-s.sem }()
	}
	var fr *protean.FleetResult
	err := ctx.Err() // canceled while queued: skip the run entirely
	if err == nil {
		fr, err = protean.RunScenario(ctx, sc, protean.WithRunProgress(j))
	}
	st := j.finish(fr, err)
	switch st {
	case wire.StateDone:
		s.mDone.Inc()
	case wire.StateCanceled:
		s.mCanceled.Inc()
	default:
		s.mFailed.Inc()
	}
}

// lookup returns the job table entry for id.
func (s *Server) lookup(id uint64) (*job, error) {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		return nil, fmt.Errorf("unknown job %d", id)
	}
	return j, nil
}

func (s *Server) connDone(c *conn) {
	s.mu.Lock()
	for i, x := range s.conns {
		if x == c {
			s.conns[i] = s.conns[len(s.conns)-1]
			s.conns = s.conns[:len(s.conns)-1]
			break
		}
	}
	s.mu.Unlock()
	s.gConns.Add(-1)
	s.connWG.Done()
}
