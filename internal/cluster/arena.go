package cluster

import (
	"sync"

	"repro/internal/desim"
)

// Arena is the allocation pool of a simulation run: the discrete-event
// simulator (whose event storage dominates a run's allocations), a
// freelist of the request objects churned on the dispatch hot path, the
// job-heap storage of finished runs' stations, and the storage of the
// run's compiled admission routes. Every run allocates through one; when
// it ends, the arena takes back each station's job storage and every
// request still in flight at the horizon, so the next run on the same
// arena schedules into already-grown storage instead of re-allocating it.
//
// Reuse never changes results: the simulator is Reset to a state
// indistinguishable from a fresh one (clock, sequence numbers and
// counters restart at zero), recycled requests are zeroed before they
// are handed out again, and reused job storage is empty.
//
// An arena is single-run state — never share one between concurrent
// runs. ArenaPool hands each concurrent run its own.
type Arena struct {
	sim      *desim.Simulator
	requests []*request
	jobs     [][]job // empty job-heap storage, ready for a new station
	legs     []leg   // backing array of the run's admission routes; cleared on Put
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

// putRequest zeroes a request no station holds any more and keeps it
// for reuse.
func (a *Arena) putRequest(req *request) {
	*req = request{}
	a.requests = append(a.requests, req)
}

// jobStorage returns empty job-heap storage for a new station: the one
// kept last, or nil when none is kept.
func (a *Arena) jobStorage() []job {
	n := len(a.jobs)
	if n == 0 {
		return nil
	}
	js := a.jobs[n-1]
	a.jobs[n-1] = nil
	a.jobs = a.jobs[:n-1]
	return js
}

// routeStorage returns empty leg storage with room for n legs, reusing
// the arena's backing array when it is large enough.
func (a *Arena) routeStorage(n int) []leg {
	if cap(a.legs) < n {
		a.legs = make([]leg, 0, n)
	}
	return a.legs[:0]
}

// reclaim takes back a finished run's station: its job storage, and
// each request resident there that no other station still holds. A
// request's left counts the stations holding its work, so one resident
// on several stations goes back when the last of them drops it.
func (a *Arena) reclaim(st *station) {
	for i := range st.jobs {
		req := st.jobs[i].req
		req.left--
		if req.left == 0 {
			a.putRequest(req)
		}
	}
	if cap(st.jobs) > 0 {
		a.jobs = append(a.jobs, st.jobs[:0])
	}
	st.jobs = nil
}

// ArenaPool parks the arenas of finished runs and lends them to later
// runs, each concurrent run its own. It is a mutex-guarded stack, not a
// sync.Pool: a run takes a parked arena whenever one exists, whichever
// goroutine or P it runs on, so a new arena is built only when more runs
// overlap than ever have on this pool, and a collection never empties
// it. Parked arenas therefore live until the pool itself is dropped —
// at most one per run that was ever in flight at once. The zero value is
// ready to use. Returned arenas have their simulator reset eagerly, so a
// parked arena is always ready to run.
type ArenaPool struct {
	mu     sync.Mutex
	parked []*Arena
}

// NewArenaPool returns an empty pool; arenas are created on demand.
func NewArenaPool() *ArenaPool { return &ArenaPool{} }

// Get borrows the most recently parked arena, creating one if none is
// parked.
func (ap *ArenaPool) Get() *Arena {
	ap.mu.Lock()
	n := len(ap.parked)
	if n == 0 {
		ap.mu.Unlock()
		return NewArena()
	}
	a := ap.parked[n-1]
	ap.parked[n-1] = nil
	ap.parked = ap.parked[:n-1]
	ap.mu.Unlock()
	return a
}

// Put resets the arena's simulator, clears its route storage (so a
// parked arena keeps no station of the finished run alive) and parks it.
func (ap *ArenaPool) Put(a *Arena) {
	a.sim.Reset()
	clear(a.legs[:cap(a.legs)])
	ap.mu.Lock()
	ap.parked = append(ap.parked, a)
	ap.mu.Unlock()
}
