// Package serve implements the capacity-planning HTTP/JSON service behind
// cmd/consolidated: the paper's analytic questions ("how many servers does
// this traffic need at this loss target", "what loss does this traffic see
// on a fixed pool") exposed as single-query GET endpoints, a batch
// endpoint, and a what-if sweep endpoint lowered onto the existing
// internal/sweep engine, plus health, readiness and metrics.
//
// The single-query path is allocation-free after warmup: queries are
// parsed straight off the raw query string, answered from the memoized
// Erlang tables (erlang.Memo — an immutable lookup structure behind an
// atomic pointer), and encoded with append-style JSON into pooled
// buffers. See DESIGN.md §11.
package serve

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/erlang"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/sweep"
)

// Config parameterizes a Server. The zero value is serviceable: an
// unbounded private pool, no sweep cache, a private registry, and the
// default limits.
type Config struct {
	// Pool is the shared simulation budget for sweep points; nil builds a
	// GOMAXPROCS-sized pool.
	Pool *pool.Pool

	// Cache, when non-nil, memoizes sweep points content-addressed (the
	// same store cmd/repro uses).
	Cache *sweep.Cache

	// Registry collects the service metrics; nil builds a private one.
	Registry *obs.Registry

	// MaxBodyBytes caps POST request bodies; 0 means 1 MiB.
	MaxBodyBytes int64

	// MaxBatchQueries caps queries per batch request; 0 means 4096.
	MaxBatchQueries int

	// MaxSweepPoints caps the expanded grid size per sweep request; 0
	// means 256.
	MaxSweepPoints int

	// RequestTimeout bounds the wall-clock of one POST request's work; 0
	// means 30 s. Negative disables the bound.
	RequestTimeout time.Duration

	// PreheatRhos are traffic values whose Erlang tables are materialized
	// before the server reports ready; nil uses a small default set.
	PreheatRhos []float64

	// PreheatServers is the table depth to preheat; 0 means 1024.
	PreheatServers int
}

// DefaultPreheatRhos are the traffics warmed at startup: the paper's
// case-study loads and round decades a capacity-planning client is likely
// to probe first.
var DefaultPreheatRhos = []float64{1, 5, 10, 42.5, 50, 100, 120, 500, 1000}

// Server is the capacity-planning service: an http.Handler plus the
// long-lived state behind it (Erlang memo, sweep engine, metrics).
type Server struct {
	cfg      Config
	reg      *obs.Registry
	memo     *erlang.Memo
	engine   *sweep.Engine
	analytic *eval.Analytic
	sim      *eval.Sim
	routes   map[string]http.Handler
	ready    atomic.Bool
	bufs     sync.Pool // *respBuf

	sweepsRun *obs.Counter
	sweepPts  *obs.Counter
	plansRun  *obs.Counter
	planEvals *obs.Counter
}

type respBuf struct{ b []byte }

// New builds a ready-to-serve Server: routes registered and instrumented,
// Erlang tables preheated, sweep engine wired to the shared pool and
// cache. It returns an error only for an unbuildable pool.
func New(cfg Config) (*Server, error) {
	if cfg.MaxBodyBytes == 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.MaxBatchQueries == 0 {
		cfg.MaxBatchQueries = 4096
	}
	if cfg.MaxSweepPoints == 0 {
		cfg.MaxSweepPoints = 256
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	if cfg.Pool == nil {
		p, err := pool.New(0)
		if err != nil {
			return nil, err
		}
		cfg.Pool = p
	}
	if cfg.PreheatRhos == nil {
		cfg.PreheatRhos = DefaultPreheatRhos
	}
	if cfg.PreheatServers == 0 {
		cfg.PreheatServers = 1024
	}

	// One analytic evaluator owns the Erlang memo, so the hot single-query
	// path and the placement planner share the same growing tables.
	analytic := eval.NewAnalytic(erlang.NewMemo(0, 0))
	s := &Server{
		cfg:      cfg,
		reg:      cfg.Registry,
		memo:     analytic.Memo(),
		analytic: analytic,
		engine:   sweep.NewEngine(cfg.Pool, cfg.Cache, cfg.Registry).Scoped("serve"),
		bufs:     sync.Pool{New: func() any { return &respBuf{b: make([]byte, 0, 256)} }},
	}
	s.sim = eval.NewSim(s.engine)
	s.reg.CounterFunc("serve/memo_hits", s.memo.Hits)
	s.reg.CounterFunc("serve/memo_misses", s.memo.Misses)
	s.reg.CounterFunc("serve/memo_fallbacks", s.memo.Fallbacks)
	s.reg.GaugeFunc("serve/memo_rhos", func() float64 { return float64(s.memo.Rhos()) })
	s.sweepsRun = s.reg.Counter("serve/sweeps_run")
	s.sweepPts = s.reg.Counter("serve/sweep_points")
	s.plansRun = s.reg.Counter("serve/plans_run")
	s.planEvals = s.reg.Counter("serve/plan_evaluations")
	cfg.Pool.Observe(s.reg)

	s.routes = map[string]http.Handler{
		"/v1/servers": s.route("servers", s.handleServers),
		"/v1/loss":    s.route("loss", s.handleLoss),
		"/v1/batch":   s.route("batch", s.handleBatch),
		"/v1/sweep":   s.route("sweep", s.handleSweep),
		"/v1/plan":    s.route("plan", s.handlePlan),
		"/healthz":    s.route("healthz", s.handleHealthz),
		"/readyz":     s.route("readyz", s.handleReadyz),
		"/metrics":    s.route("metrics", s.handleMetrics),
	}

	if err := s.memo.Preheat(cfg.PreheatRhos, cfg.PreheatServers); err != nil {
		return nil, err
	}
	s.ready.Store(true)
	return s, nil
}

// route instruments one handler under its metric name.
func (s *Server) route(name string, h http.HandlerFunc) http.Handler {
	return obs.InstrumentHandler(s.reg, name, h)
}

// Registry exposes the server's metric registry.
func (s *Server) Registry() *obs.Registry { return s.reg }

// SetReady flips the readiness probe — the draining hook: a server about
// to shut down turns unready first so load balancers stop routing to it
// while in-flight requests finish.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// ServeHTTP routes by exact path. The route table is immutable after New,
// so the lookup is one map read — no pattern matching, no per-request
// allocation.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h, ok := s.routes[r.URL.Path]; ok {
		h.ServeHTTP(w, r)
		return
	}
	writeError(w, http.StatusNotFound, CodeNotFound, "no such endpoint: "+r.URL.Path)
}

// The hot GET endpoints dispatch on a constant rather than a method value:
// binding a method value per request would allocate a closure, and this
// path is pinned at zero allocations.
const (
	hotServers = iota
	hotLoss
)

// serveHot runs one zero-alloc GET answerer with a pooled buffer.
func (s *Server) serveHot(w http.ResponseWriter, r *http.Request, which int) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "use GET")
		return
	}
	rb := s.bufs.Get().(*respBuf)
	var (
		out    []byte
		status int
	)
	switch which {
	case hotServers:
		out, status = s.answerServers(r.URL.RawQuery, rb.b[:0])
	default:
		out, status = s.answerLoss(r.URL.RawQuery, rb.b[:0])
	}
	writeResponse(w, status, out)
	rb.b = out[:0]
	s.bufs.Put(rb)
}

func (s *Server) handleServers(w http.ResponseWriter, r *http.Request) {
	s.serveHot(w, r, hotServers)
}

func (s *Server) handleLoss(w http.ResponseWriter, r *http.Request) {
	s.serveHot(w, r, hotLoss)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeResponse(w, http.StatusOK, []byte(`{"status":"ok"}`))
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.ready.Load() {
		writeResponse(w, http.StatusOK, []byte(`{"status":"ready"}`))
		return
	}
	writeResponse(w, http.StatusServiceUnavailable, []byte(`{"status":"draining"}`))
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.reg.Snapshot())
}

// requestCtx applies the configured per-request work bound.
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.cfg.RequestTimeout < 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
}

// decodePost enforces method, body size and strict JSON decoding for the
// POST endpoints. The whole body is read into a pooled buffer under the
// size limit, so any body over it is a 413, and decode gets its bytes; it
// must keep no reference to them. It writes the error response itself
// when it fails.
func (s *Server) decodePost(w http.ResponseWriter, r *http.Request, decode func([]byte) error) bool {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "use POST")
		return false
	}
	rb := s.bufs.Get().(*respBuf)
	body := bytes.NewBuffer(rb.b[:0])
	_, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err == nil {
		err = decode(body.Bytes())
	}
	rb.b = body.Bytes()[:0]
	s.bufs.Put(rb)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, CodeBodyTooLarge, err.Error())
			return false
		}
		writeError(w, http.StatusBadRequest, CodeInvalidArgument, "decoding request body: "+err.Error())
		return false
	}
	return true
}

// writeRunError maps a batch/sweep execution error onto the structured
// shape: the client abandoning the request and the work bound expiring get
// their own codes; everything else is an internal failure.
func writeRunError(w http.ResponseWriter, reqCtx context.Context, err error) {
	switch {
	case reqCtx.Err() == context.Canceled || errors.Is(err, context.Canceled):
		writeError(w, statusCanceledClient, CodeCanceled, "request canceled: "+err.Error())
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, CodeDeadlineExceeded, "request timed out: "+err.Error())
	default:
		writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
	}
}
