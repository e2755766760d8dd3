package sweep

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/pool"
)

// Engine executes sweep points against one shared worker pool, memoizing
// completed points in a content-addressed cache. The engine itself spawns
// one cheap orchestrator goroutine per point; only the simulation
// replications inside a point hold pool slots, so an engine-wide budget of
// N slots means at most N concurrently executing simulations no matter how
// many points or experiments are in flight.
type Engine struct {
	pool   *pool.Pool
	cache  *Cache
	reg    *obs.Registry
	arenas *cluster.ArenaPool
	// keyers shares pointKeyer marshal buffers across concurrent point
	// goroutines (a pointer: Scoped copies the Engine by value, and the
	// scoped view must reuse the same buffers, not copy the sync.Pool).
	keyers *sync.Pool
	scope  string
}

// NewEngine builds an engine over the given shared pool (nil = unbounded),
// cache (nil = always recompute) and registry (nil = a private one). The
// engine owns one arena pool shared by every point it runs, so
// consecutive points reuse simulator event storage instead of re-growing
// it (scoped views share the pool too).
func NewEngine(p *pool.Pool, c *Cache, reg *obs.Registry) *Engine {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Engine{
		pool:   p,
		cache:  c,
		reg:    reg,
		arenas: cluster.NewArenaPool(),
		keyers: &sync.Pool{New: func() any { return newPointKeyer() }},
	}
}

// Scoped returns a view of the engine whose progress counters carry the
// given scope name (e.g. the experiment ID), sharing the pool, cache and
// registry with the parent.
func (e *Engine) Scoped(scope string) *Engine {
	se := *e
	se.scope = scope
	return &se
}

// Pool exposes the shared concurrency budget (possibly nil).
func (e *Engine) Pool() *pool.Pool { return e.pool }

func (e *Engine) metric(name string) string {
	if e.scope == "" {
		return "sweep/" + name
	}
	return "sweep/" + e.scope + "/" + name
}

// RunPoints executes the given points, returning results in point order.
// Cached points are served from the content-addressed store without
// touching the pool; fresh points run their replications through the
// shared budget. The first error (by lowest point index) aborts the rest
// via context cancellation. Per-point progress lands in the engine
// registry as sweep[/scope]/points_done, cache_hits and cache_misses.
func (e *Engine) RunPoints(ctx context.Context, points []Point) ([]PointResult, error) {
	if err := validateIndices(points); err != nil {
		return nil, err
	}
	hits := e.reg.Counter(e.metric("cache_hits"))
	misses := e.reg.Counter(e.metric("cache_misses"))
	done := e.reg.Counter(e.metric("points_done"))
	writeErrs := e.reg.Counter(e.metric("cache_write_errors"))

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]PointResult, len(points))
	var (
		mu       sync.Mutex
		firstErr error
		errIdx   = len(points)
	)
	fail := func(idx int, err error) {
		mu.Lock()
		if idx < errIdx {
			errIdx = idx
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}

	var wg sync.WaitGroup
	for i := range points {
		wg.Add(1)
		go func(p Point) {
			defer wg.Done()
			res, err := e.runPoint(ctx, p, hits, misses, writeErrs)
			if err != nil {
				fail(p.Index, fmt.Errorf("point %d (%s): %w", p.Index, p.Label, err))
				return
			}
			results[p.Index] = res
			done.Inc()
		}(points[i])
	}
	wg.Wait()

	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}

// runPoint serves one point from cache or runs it fresh.
func (e *Engine) runPoint(ctx context.Context, p Point, hits, misses, writeErrs *obs.Counter) (PointResult, error) {
	cacheable := e.cache != nil && cacheablePoint(p.Scenario)
	var key string
	if cacheable {
		ky := e.keyers.Get().(*pointKeyer)
		k, err := ky.key(p.Scenario)
		e.keyers.Put(ky)
		if err != nil {
			return PointResult{}, err
		}
		key = k
		var res PointResult
		if e.cache.Get(key, &res) {
			hits.Inc()
			res.Index, res.Label, res.CacheHit = p.Index, p.Label, true
			return res, nil
		}
		misses.Inc()
	}

	c, err := p.Scenario.Compile()
	if err != nil {
		return PointResult{}, err
	}
	runCtx := ctx
	if c.Timeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(ctx, c.Timeout)
		defer cancel()
	}
	rcfg := c.Replication
	rcfg.Pool = e.pool
	c.Cluster.Arenas = e.arenas

	set, err := cluster.Replications(runCtx, c.Cluster, rcfg)
	if err != nil {
		// A per-point wall-clock timeout keeps the completed prefix (that
		// is what TimeoutSec means); anything else — including the parent
		// context's own deadline or cancellation arriving first — aborts
		// the point.
		timedOut := timeoutKeepsPrefix(runCtx, ctx, err) && set != nil && len(set.Results) > 0
		if !timedOut {
			return PointResult{}, err
		}
	}
	res := summarize(set, c)
	res.Index, res.Label = p.Index, p.Label
	if cacheable {
		if err := e.cache.Put(key, res); err != nil {
			// A failed write only costs a future recompute.
			writeErrs.Inc()
		}
	}
	return res, nil
}

// validateIndices checks that the points' Index fields form exactly
// {0, ..., len-1}: results are returned in index order, so a gap or a
// duplicate (e.g. a hand-built list re-running only failed points) would
// otherwise index out of range or silently overwrite a neighbor.
func validateIndices(points []Point) error {
	seen := make([]bool, len(points))
	for i := range points {
		idx := points[i].Index
		if idx < 0 || idx >= len(points) {
			return fmt.Errorf("%w: point %d has index %d, want one of 0..%d",
				ErrInvalidSpec, i, idx, len(points)-1)
		}
		if seen[idx] {
			return fmt.Errorf("%w: duplicate point index %d", ErrInvalidSpec, idx)
		}
		seen[idx] = true
	}
	return nil
}

// timeoutKeepsPrefix classifies a replication-run error: true when the
// point's own wall-clock deadline fired, which keeps the completed
// replication prefix. The decision reads the point's runCtx, not the
// parent: a sibling failure cancelling the parent after this point's
// deadline has already fired must not turn a legitimate timeout into a
// hard error. A deadline on the parent itself (a global abort) is never
// the point's own timeout.
func timeoutKeepsPrefix(runCtx, parent context.Context, err error) bool {
	if runCtx == parent {
		// No per-point timeout was armed.
		return false
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return runCtx.Err() == context.DeadlineExceeded &&
		parent.Err() != context.DeadlineExceeded
}

// Go runs fn(0..n-1) concurrently, each call holding one pool slot, and
// returns the error of the lowest-index failure. It is the fan-out
// primitive for experiment stages that are not scenario points (analytic
// sweeps, queueing-level simulations).
func (e *Engine) Go(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	var (
		mu       sync.Mutex
		firstErr error
		errIdx   = n
	)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := e.pool.Run(ctx, func() error { return fn(ctx, i) })
			if err != nil {
				mu.Lock()
				if i < errIdx {
					errIdx = i
					firstErr = err
				}
				mu.Unlock()
				cancel()
			}
		}(i)
	}
	wg.Wait()
	return firstErr
}

// Cached memoizes an arbitrary computation under an explicit key built
// with Key(...). The key must cover every input that influences the value,
// including seeds. With no cache configured it simply computes.
func Cached[T any](ctx context.Context, e *Engine, key string, compute func(ctx context.Context) (T, error)) (T, error) {
	var zero T
	if e.cache != nil {
		var v T
		if e.cache.Get(key, &v) {
			e.reg.Counter(e.metric("cache_hits")).Inc()
			return v, nil
		}
		e.reg.Counter(e.metric("cache_misses")).Inc()
	}
	v, err := compute(ctx)
	if err != nil {
		return zero, err
	}
	if e.cache != nil {
		if err := e.cache.Put(key, v); err != nil {
			e.reg.Counter(e.metric("cache_write_errors")).Inc()
		}
	}
	return v, nil
}
