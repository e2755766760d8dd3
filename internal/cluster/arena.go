package cluster

import (
	"sync"

	"repro/internal/desim"
)

// Arena is the reusable allocation pool of one simulation run: the
// discrete-event simulator (whose event storage dominates a run's
// allocations), freelists for the request and jobRef objects churned
// on the dispatch hot path, and the storage of the run's compiled
// admission routes. A run borrows an arena, allocates through it,
// and returns it; the next run then schedules into already-grown event
// storage and recycles the previous run's request graph instead of
// re-allocating it.
//
// Reuse never changes results: the simulator is Reset to a state
// indistinguishable from a fresh one (clock, sequence numbers and
// counters restart at zero), and recycled requests and jobRefs are
// zeroed before they are handed out again.
//
// An arena is single-run state — never share one between concurrent
// runs. ArenaPool hands each concurrent run its own.
type Arena struct {
	sim      *desim.Simulator
	requests []*request
	jobRefs  []*jobRef
	legs     []leg // backing array of the run's admission routes; cleared on Put
}

// NewArena returns an empty arena ready for its first run.
func NewArena() *Arena {
	return &Arena{sim: desim.New()}
}

func (a *Arena) getRequest() *request {
	if n := len(a.requests); n > 0 {
		req := a.requests[n-1]
		a.requests[n-1] = nil
		a.requests = a.requests[:n-1]
		return req
	}
	return &request{}
}

func (a *Arena) getJobRef() *jobRef {
	if n := len(a.jobRefs); n > 0 {
		j := a.jobRefs[n-1]
		a.jobRefs[n-1] = nil
		a.jobRefs = a.jobRefs[:n-1]
		return j
	}
	return &jobRef{}
}

// routeStorage returns empty leg storage with room for n legs, reusing
// the arena's backing array when it is large enough.
func (a *Arena) routeStorage(n int) []leg {
	if cap(a.legs) < n {
		a.legs = make([]leg, 0, n)
	}
	return a.legs[:0]
}

// recycleRequest returns a completed request and its job references to
// the freelists. Only fully drained requests may be recycled: every
// jobRef must already be off its station's heap. Requests lost to host
// failures are deliberately left to the garbage collector — their refs
// may still be reachable from in-flight bookkeeping.
func (a *Arena) recycleRequest(req *request) {
	for i, j := range req.refs {
		*j = jobRef{}
		a.jobRefs = append(a.jobRefs, j)
		req.refs[i] = nil
	}
	*req = request{refs: req.refs[:0]}
	a.requests = append(a.requests, req)
}

// ArenaPool shares arenas across sequential runs while keeping each
// concurrent run on its own arena. The zero value is not usable; call
// NewArenaPool. Returned arenas have their simulator reset eagerly, so a
// pooled arena is always ready to run.
type ArenaPool struct {
	p sync.Pool
}

// NewArenaPool returns an empty pool; arenas are created on demand.
func NewArenaPool() *ArenaPool {
	ap := &ArenaPool{}
	ap.p.New = func() any { return NewArena() }
	return ap
}

// Get borrows an arena, creating one if none is free.
func (ap *ArenaPool) Get() *Arena { return ap.p.Get().(*Arena) }

// Put resets the arena's simulator, clears its route storage (so a
// parked arena keeps no station of the finished run alive) and returns
// it to the pool.
func (ap *ArenaPool) Put(a *Arena) {
	a.sim.Reset()
	clear(a.legs[:cap(a.legs)])
	ap.p.Put(a)
}
