// Package pool is the process-wide simulation concurrency budget: one
// counting semaphore shared by every layer that runs simulation work.
// cmd/repro sizes a single Pool from -parallel and hands it to the sweep
// engine; the replication engine acquires one slot per running replication
// and individual queueing-level sims acquire one slot per run. Orchestrator
// goroutines (experiments, sweep points) stay unbounded and cheap — only
// actual simulation execution consumes a slot, and no holder of a slot ever
// waits for another slot, so nested fan-out cannot deadlock or
// oversubscribe the machine.
package pool

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"

	"repro/internal/obs"
)

// Pool is a counting semaphore bounding concurrently running simulation
// units. A nil *Pool is valid and means "unbounded": every method is a
// cheap no-op, so callers thread an optional pool without branching.
type Pool struct {
	slots chan struct{}
	size  int

	active atomic.Int64
	peak   atomic.Int64
	units  atomic.Uint64
}

// New builds a pool with the given number of slots. Zero selects
// runtime.GOMAXPROCS(0); negative counts are rejected with a clear error —
// the shared convention for every worker-count knob in this repository.
func New(workers int) (*Pool, error) {
	if workers < 0 {
		return nil, fmt.Errorf("pool: workers=%d (negative; 0 selects GOMAXPROCS)", workers)
	}
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{slots: make(chan struct{}, workers), size: workers}, nil
}

// Size reports the slot count (0 for a nil pool).
func (p *Pool) Size() int {
	if p == nil {
		return 0
	}
	return p.size
}

// Acquire takes one slot, blocking until one frees up or ctx is done. On a
// nil pool it returns immediately. A done context always loses: an
// already-cancelled Acquire never admits work, even when a slot is free —
// the select below would otherwise pick either branch at random, letting
// work start after shutdown began.
func (p *Pool) Acquire(ctx context.Context) error {
	if p == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	select {
	case p.slots <- struct{}{}:
		n := p.active.Add(1)
		for {
			old := p.peak.Load()
			if n <= old || p.peak.CompareAndSwap(old, n) {
				break
			}
		}
		p.units.Add(1)
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// TryAcquire takes one slot only if one is free right now, without
// blocking; it reports whether a slot was taken. A nil pool is unbounded
// and always succeeds. Sharded cluster runs use this to claim extra cores
// for their sibling shards: the caller already holds one slot for the run
// itself, and blocking here for more would let slot-holders wait on each
// other — the deadlock the package contract rules out.
func (p *Pool) TryAcquire() bool {
	if p == nil {
		return true
	}
	select {
	case p.slots <- struct{}{}:
		n := p.active.Add(1)
		for {
			old := p.peak.Load()
			if n <= old || p.peak.CompareAndSwap(old, n) {
				break
			}
		}
		p.units.Add(1)
		return true
	default:
		return false
	}
}

// Release returns one slot. Calls must pair with a successful Acquire or
// TryAcquire; an unpaired Release panics immediately instead of corrupting the slot
// count and deadlocking some later, unrelated Acquire.
func (p *Pool) Release() {
	if p == nil {
		return
	}
	// Leave the active count before freeing the slot: a waiting Acquire
	// takes the slot the moment it is free, and counting it while this
	// holder still counts would record a peak of size+1.
	p.active.Add(-1)
	select {
	case <-p.slots:
	default:
		p.active.Add(1)
		panic("pool: Release without a matching Acquire")
	}
}

// Run acquires a slot for the duration of fn.
func (p *Pool) Run(ctx context.Context, fn func() error) error {
	if err := p.Acquire(ctx); err != nil {
		return err
	}
	defer p.Release()
	return fn()
}

// Active reports the number of currently held slots.
func (p *Pool) Active() int {
	if p == nil {
		return 0
	}
	return int(p.active.Load())
}

// Peak reports the occupancy high-water mark.
func (p *Pool) Peak() int {
	if p == nil {
		return 0
	}
	return int(p.peak.Load())
}

// Units reports how many Acquire calls have succeeded — the total count of
// simulation units the pool has admitted.
func (p *Pool) Units() uint64 {
	if p == nil {
		return 0
	}
	return p.units.Load()
}

// Observe registers the pool's occupancy metrics on reg, collected lazily
// at snapshot time (the hot path touches only the pool's own atomics):
// pool/size, pool/active, pool/peak_active gauges and a pool/units_run
// counter.
func (p *Pool) Observe(reg *obs.Registry) {
	if p == nil || reg == nil {
		return
	}
	reg.GaugeFunc("pool/size", func() float64 { return float64(p.Size()) })
	reg.GaugeFunc("pool/active", func() float64 { return float64(p.Active()) })
	reg.GaugeFunc("pool/peak_active", func() float64 { return float64(p.Peak()) })
	reg.CounterFunc("pool/units_run", p.Units)
}
