// Package desim is a minimal, deterministic discrete-event simulation
// engine: a simulation clock, a pending-event heap with stable FIFO
// tie-breaking, cancellable events, and time-weighted statistics. It is the
// laboratory substrate on which the queueing and cluster simulators run in
// place of the paper's physical testbed.
//
// Events live in a slice-backed arena rather than as individual heap
// allocations: scheduling reuses slots through a free list, handles address
// slots by (index, generation) so stale handles go inert when a slot is
// recycled, and cancellation is lazy — a cancelled event stays queued until
// it is popped or until cancelled events outnumber live ones, at which
// point the queue is compacted in place. The steady-state schedule/fire
// path performs no allocations.
package desim

import (
	"errors"
	"fmt"
	"math"
)

// Time is simulated time in seconds since the start of the run.
type Time = float64

// Handle identifies a scheduled event and allows cancelling it. The zero
// Handle is valid and refers to no event. Handles stay cheap to copy and
// never keep a fired event alive: once the event fires or is reaped, the
// slot's generation advances and the handle goes inert.
type Handle struct {
	sim *Simulator
	idx int32
	gen uint32
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op. It reports whether the event was
// still pending.
func (h Handle) Cancel() bool {
	if h.sim == nil {
		return false
	}
	ev := &h.sim.arena[h.idx]
	if ev.gen != h.gen || ev.state != statePending {
		return false
	}
	ev.state = stateCancelled
	h.sim.cancelled++
	h.sim.cancelledTotal++
	if h.sim.tracer != nil {
		h.sim.tracer.TraceEvent(TraceCancel, h.sim.now, ev.at)
	}
	h.sim.maybeCompact()
	return true
}

// Pending reports whether the event is still scheduled to fire.
func (h Handle) Pending() bool {
	if h.sim == nil {
		return false
	}
	ev := &h.sim.arena[h.idx]
	return ev.gen == h.gen && ev.state == statePending
}

// Event slot states. A slot cycles free -> pending -> (cancelled ->) free;
// the generation counter advances each time the slot returns to free.
const (
	stateFree = iota
	statePending
	stateCancelled
)

// event is one arena slot.
type event struct {
	at    Time
	seq   uint64
	fn    func()
	gen   uint32
	state uint8
}

// Simulator owns the clock and the event queue. The zero value is not
// usable; call New.
type Simulator struct {
	now       Time
	arena     []event // slot storage; grows, never shrinks
	free      []int32 // recycled slot indexes
	queue     []int32 // binary min-heap of slot indexes, keyed by (at, seq)
	seq       uint64
	cancelled int // cancelled events still sitting in queue
	stopped   bool

	// Engine counters. The simulator is single-writer by construction
	// (events fire on one goroutine), so these are plain fields — an
	// increment, not an atomic — and the observability registry reads
	// them through Stats() only when a snapshot is taken. This keeps the
	// schedule/fire path allocation-free and within noise of the
	// uninstrumented engine.
	fired          uint64
	scheduled      uint64
	cancelledTotal uint64
	compactions    uint64
	maxQueue       int

	tracer Tracer
}

// TraceOp labels one scheduler operation for event tracing.
type TraceOp uint8

// Scheduler operations reported to a Tracer.
const (
	TraceSchedule TraceOp = iota // event accepted by At/After; at = firing time
	TraceFire                    // event popped and executed; at = firing time
	TraceCancel                  // pending event cancelled; at = firing time it will no longer get
	TraceCompact                 // cancelled-event compaction pass; at = now
)

// String names the operation.
func (op TraceOp) String() string {
	switch op {
	case TraceSchedule:
		return "schedule"
	case TraceFire:
		return "fire"
	case TraceCancel:
		return "cancel"
	case TraceCompact:
		return "compact"
	}
	return "unknown"
}

// Tracer observes scheduler operations for post-hoc debugging of sim
// schedules. Implementations must not call back into the simulator.
// obs.TraceWriter is the JSONL implementation.
type Tracer interface {
	TraceEvent(op TraceOp, now, at Time)
}

// SetTracer installs (or, with nil, removes) the scheduler tracer. The
// untraced path costs one predictable nil check per operation.
func (s *Simulator) SetTracer(t Tracer) { s.tracer = t }

// Stats is a point-in-time copy of the engine counters.
type Stats struct {
	// Scheduled counts events accepted by At/After.
	Scheduled uint64
	// Fired counts events executed.
	Fired uint64
	// Cancelled counts successful Handle.Cancel calls.
	Cancelled uint64
	// Compactions counts cancelled-event compaction passes.
	Compactions uint64
	// MaxQueue is the high-water mark of the pending-event heap
	// (including not-yet-reaped cancelled events).
	MaxQueue int
	// ArenaSlots is the number of event slots ever allocated.
	ArenaSlots int
}

// Stats reports the engine counters.
func (s *Simulator) Stats() Stats {
	return Stats{
		Scheduled:   s.scheduled,
		Fired:       s.fired,
		Cancelled:   s.cancelledTotal,
		Compactions: s.compactions,
		MaxQueue:    s.maxQueue,
		ArenaSlots:  len(s.arena),
	}
}

// New returns a simulator with the clock at 0.
func New() *Simulator {
	return &Simulator{}
}

// Reset returns the simulator to its initial state — clock at 0, empty
// queue, zeroed counters — while keeping the arena, free-list and queue
// capacity, so a reused simulator runs its next workload without
// re-growing event storage. Handles from before the Reset go inert: every
// in-use slot's generation advances, exactly as if its event had fired.
// A reset simulator is indistinguishable from a fresh one to its events
// (the clock and the FIFO tie-breaking sequence restart at zero), so
// reuse never changes simulation results.
func (s *Simulator) Reset() {
	for i := range s.arena {
		ev := &s.arena[i]
		if ev.state != stateFree {
			ev.gen++
			ev.state = stateFree
		}
		ev.fn = nil
	}
	// Refill the free list high-to-low: pops come from the tail, so a
	// reused simulator hands out slots in the same 0, 1, 2, ... order a
	// fresh one grows them.
	s.free = s.free[:0]
	for i := len(s.arena) - 1; i >= 0; i-- {
		s.free = append(s.free, int32(i))
	}
	s.queue = s.queue[:0]
	s.now, s.seq, s.cancelled, s.stopped = 0, 0, 0, false
	s.fired, s.scheduled, s.cancelledTotal, s.compactions, s.maxQueue = 0, 0, 0, 0, 0
}

// Now reports the current simulated time.
func (s *Simulator) Now() Time { return s.now }

// Fired reports how many events have executed so far.
func (s *Simulator) Fired() uint64 { return s.fired }

// ErrPast reports an attempt to schedule an event before the current time.
var ErrPast = errors.New("desim: cannot schedule event in the past")

// At schedules fn to run at absolute time t. It panics if t precedes the
// current time (a simulation bug, not a recoverable condition).
func (s *Simulator) At(t Time, fn func()) Handle {
	if t < s.now || math.IsNaN(t) {
		panic(fmt.Errorf("%w: now=%g, requested=%g", ErrPast, s.now, t))
	}
	var idx int32
	if n := len(s.free); n > 0 {
		idx = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		s.arena = append(s.arena, event{})
		idx = int32(len(s.arena) - 1)
	}
	ev := &s.arena[idx]
	ev.at, ev.seq, ev.fn, ev.state = t, s.seq, fn, statePending
	s.seq++
	s.queue = append(s.queue, idx)
	s.siftUp(len(s.queue) - 1)
	if len(s.queue) > s.maxQueue {
		s.maxQueue = len(s.queue)
	}
	s.scheduled++
	if s.tracer != nil {
		s.tracer.TraceEvent(TraceSchedule, s.now, t)
	}
	return Handle{sim: s, idx: idx, gen: ev.gen}
}

// After schedules fn to run d seconds from now. Negative d panics.
func (s *Simulator) After(d Time, fn func()) Handle {
	return s.At(s.now+d, fn)
}

// Stop halts the run loop after the currently executing event returns.
func (s *Simulator) Stop() { s.stopped = true }

// Run executes events in timestamp order until the queue is empty, the
// horizon is reached, or Stop is called. Events scheduled exactly at the
// horizon do fire; later events stay queued. It returns the number of
// events executed during this call.
func (s *Simulator) Run(horizon Time) uint64 {
	s.stopped = false
	var count uint64
	for len(s.queue) > 0 && !s.stopped {
		idx := s.queue[0]
		ev := &s.arena[idx]
		if ev.at > horizon {
			break
		}
		s.popTop()
		if ev.state == stateCancelled {
			s.cancelled--
			s.release(idx)
			continue
		}
		s.now = ev.at
		fn := ev.fn
		// Release before firing: the slot is immediately reusable by events
		// fn schedules, and handles to this event go inert — matching the
		// fired-event semantics (Pending false, Cancel a no-op).
		s.release(idx)
		if s.tracer != nil {
			s.tracer.TraceEvent(TraceFire, s.now, s.now)
		}
		fn()
		s.fired++
		count++
	}
	if s.now < horizon && !s.stopped && !math.IsInf(horizon, 1) {
		// Advance the clock to the horizon even if the queue drained, so
		// time-weighted statistics cover the whole window. RunAll (infinite
		// horizon) leaves the clock at the last event instead.
		s.now = horizon
	}
	return count
}

// RunAll executes events until the queue is empty or Stop is called.
func (s *Simulator) RunAll() uint64 {
	return s.Run(math.Inf(1))
}

// Pending reports the number of events still queued (including cancelled
// events not yet reaped).
func (s *Simulator) Pending() int {
	return len(s.queue)
}

// release returns a slot to the free list and advances its generation so
// outstanding handles to it go inert.
func (s *Simulator) release(idx int32) {
	ev := &s.arena[idx]
	ev.fn = nil // drop the closure reference for the garbage collector
	ev.gen++
	ev.state = stateFree
	s.free = append(s.free, idx)
}

// maybeCompact reaps cancelled events eagerly once they outnumber live
// ones, so workloads that cancel far-future events (the cluster stations
// rescheduling completions) cannot grow the queue without bound. Removing
// entries never changes the firing order of live events: pop order is the
// total order (at, seq), independent of the heap's internal arrangement.
func (s *Simulator) maybeCompact() {
	if s.cancelled <= len(s.queue)/2 || len(s.queue) < 64 {
		return
	}
	kept := s.queue[:0]
	for _, idx := range s.queue {
		if s.arena[idx].state == stateCancelled {
			s.release(idx)
			continue
		}
		kept = append(kept, idx)
	}
	s.queue = kept
	s.cancelled = 0
	s.compactions++
	if s.tracer != nil {
		s.tracer.TraceEvent(TraceCompact, s.now, s.now)
	}
	// Heapify bottom-up: O(n).
	for i := len(s.queue)/2 - 1; i >= 0; i-- {
		s.siftDown(i)
	}
}

// less orders slots by (at, seq): FIFO among simultaneous events.
func (s *Simulator) less(a, b int32) bool {
	ea, eb := &s.arena[a], &s.arena[b]
	if ea.at != eb.at {
		return ea.at < eb.at
	}
	return ea.seq < eb.seq
}

// siftUp restores the heap property from position i toward the root.
func (s *Simulator) siftUp(i int) {
	q := s.queue
	node := q[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(node, q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = node
}

// popTop removes the minimum element.
func (s *Simulator) popTop() {
	q := s.queue
	n := len(q) - 1
	q[0] = q[n]
	s.queue = q[:n]
	if n > 0 {
		s.siftDown(0)
	}
}

// siftDown restores the heap property from position i toward the leaves.
func (s *Simulator) siftDown(i int) {
	q := s.queue
	n := len(q)
	node := q[i]
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && s.less(q[r], q[child]) {
			child = r
		}
		if !s.less(q[child], node) {
			break
		}
		q[i] = q[child]
		i = child
	}
	q[i] = node
}

// arenaSize reports the number of slots ever allocated (test hook for slot
// reuse).
func (s *Simulator) arenaSize() int { return len(s.arena) }

// TimeAverage tracks the time-weighted average of a piecewise-constant
// signal, e.g. the number of busy servers. Call Set at every change with
// the current simulated time; read Average at the end.
type TimeAverage struct {
	started  bool
	lastT    Time
	lastV    float64
	area     float64
	duration float64
	max      float64
}

// Set records that the signal takes value v from time t onward.
func (a *TimeAverage) Set(t Time, v float64) {
	if a.started {
		dt := t - a.lastT
		if dt > 0 {
			a.area += a.lastV * dt
			a.duration += dt
		}
	} else {
		a.started = true
		a.max = v
	}
	if v > a.max {
		a.max = v
	}
	a.lastT = t
	a.lastV = v
}

// Finish closes the observation window at time t without changing the
// value.
func (a *TimeAverage) Finish(t Time) { a.Set(t, a.lastV) }

// Reset closes the window at t and restarts accumulation from t with the
// current value, discarding everything observed before t. Statistics
// scoped to a post-warmup window snapshot their signals with Reset at the
// warmup boundary.
func (a *TimeAverage) Reset(t Time) {
	a.Set(t, a.lastV)
	a.area = 0
	a.duration = 0
	a.max = a.lastV
}

// Average reports the time-weighted mean (NaN if no time has elapsed).
func (a *TimeAverage) Average() float64 {
	if a.duration == 0 {
		return math.NaN()
	}
	return a.area / a.duration
}

// Max reports the largest value observed.
func (a *TimeAverage) Max() float64 {
	if !a.started {
		return math.NaN()
	}
	return a.max
}

// Duration reports the observed time span.
func (a *TimeAverage) Duration() float64 { return a.duration }

// Current reports the most recently set value.
func (a *TimeAverage) Current() float64 { return a.lastV }
