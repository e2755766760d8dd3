// Package desim is a minimal, deterministic discrete-event simulation
// engine: a simulation clock, a pending-event heap with stable FIFO
// tie-breaking, cancellable and reschedulable events, and time-weighted
// statistics. It is the laboratory substrate on which the queueing and
// cluster simulators run in place of the paper's physical testbed.
//
// Events live in a slice-backed arena rather than as individual heap
// allocations: scheduling reuses slots through a free list, and handles
// address slots by (index, generation) so stale handles go inert when a
// slot is recycled. The queue is an indexed binary heap whose entries carry
// their (time, seq) key inline beside the slot index, and every pending
// slot records its heap position, so Cancel removes its event eagerly and
// Reschedule re-keys one in place, each in O(log n). The queue therefore
// holds exactly the pending events, plus the firing event's entry while
// its function runs: Run leaves that entry at the root, the first event
// the function schedules takes its place with one sift-down, and only an
// event that schedules nothing pays a separate removal. The steady-state
// schedule/fire/cancel/reschedule paths perform no allocations.
package desim

import (
	"errors"
	"fmt"
	"math"
)

// Time is simulated time in seconds since the start of the run.
type Time = float64

// Handle identifies a scheduled event and allows cancelling or
// rescheduling it. The zero Handle is valid and refers to no event.
// Handles stay cheap to copy and never keep a fired event alive: once the
// event fires, is cancelled or is rescheduled, the slot's generation
// advances and the handle goes inert.
type Handle struct {
	sim *Simulator
	idx int32
	gen uint32
}

// Cancel prevents the event from firing, removing it from the queue.
// Cancelling an already-fired or already-cancelled event is a no-op. It
// reports whether the event was still pending.
func (h Handle) Cancel() bool {
	if !h.Pending() {
		return false
	}
	s := h.sim
	pos := s.arena[h.idx].pos
	at := s.queue[pos].at
	s.remove(int(pos))
	s.release(h.idx)
	s.cancelled++
	if s.tracer != nil {
		s.tracer.TraceEvent(TraceCancel, s.now, at)
	}
	return true
}

// Pending reports whether the event is still scheduled to fire.
func (h Handle) Pending() bool {
	if h.sim == nil {
		return false
	}
	ev := &h.sim.arena[h.idx]
	return ev.gen == h.gen && ev.pos >= 0
}

// event is one arena slot. A slot is pending while pos >= 0; the
// generation advances each time the slot stops being pending (fired,
// cancelled, rescheduled or reset).
type event struct {
	fn  func()
	pos int32 // index of the slot's entry in Simulator.queue; -1 when free
	gen uint32
}

// entry is one queue element: a pending slot and its firing key, kept
// inline so heap comparisons never touch the arena.
type entry struct {
	at  Time
	seq uint64
	idx int32
}

// Simulator owns the clock and the event queue. The zero value is not
// usable; call New.
type Simulator struct {
	now   Time
	arena []event // slot storage; grows, never shrinks
	free  []int32 // recycled slot indexes
	queue []entry // binary min-heap keyed by (at, seq)
	seq   uint64
	// firing is set while queue[0] is the executing event's spent entry,
	// which the next At overwrites and Run removes otherwise. The entry
	// keeps the heap valid meanwhile: every pending event orders after it.
	firing bool

	// Engine counters. The simulator is single-writer by construction
	// (events fire on one goroutine), so these are plain fields — an
	// increment, not an atomic — and the observability registry reads
	// them through Stats() only when a snapshot is taken. This keeps the
	// schedule/fire path allocation-free and within noise of the
	// uninstrumented engine.
	fired     uint64
	scheduled uint64
	cancelled uint64
	maxQueue  int

	tracer Tracer
}

// TraceOp labels one scheduler operation for event tracing.
type TraceOp uint8

// Scheduler operations reported to a Tracer.
const (
	TraceSchedule TraceOp = iota // event accepted by At/After/Reschedule; at = firing time
	TraceFire                    // event popped and executed; at = firing time
	TraceCancel                  // pending event cancelled or rescheduled; at = firing time it will no longer get
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

// Stats is a point-in-time copy of the engine counters. Scheduled −
// Fired − Cancelled is the number of pending events, except while an
// event is executing (it is no longer pending but not yet counted as
// fired).
type Stats struct {
	// Scheduled counts events accepted by At/After, plus one per
	// Reschedule.
	Scheduled uint64
	// Fired counts events executed.
	Fired uint64
	// Cancelled counts successful Handle.Cancel calls, plus one per
	// Reschedule of a pending event.
	Cancelled uint64
	// MaxQueue is the high-water mark of the pending-event heap. Cancelled
	// and rescheduled events leave the heap at once, so this is the peak
	// number of pending events.
	MaxQueue int
	// ArenaSlots is the number of event slots ever allocated.
	ArenaSlots int
}

// Stats reports the engine counters.
func (s *Simulator) Stats() Stats {
	return Stats{
		Scheduled:  s.scheduled,
		Fired:      s.fired,
		Cancelled:  s.cancelled,
		MaxQueue:   s.maxQueue,
		ArenaSlots: len(s.arena),
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
// pending slot's generation advances, exactly as if its event had fired.
// A reset simulator is indistinguishable from a fresh one to its events
// (the clock and the FIFO tie-breaking sequence restart at zero), so
// reuse never changes simulation results.
func (s *Simulator) Reset() {
	for i := range s.arena {
		ev := &s.arena[i]
		if ev.pos >= 0 {
			ev.gen++
			ev.pos = -1
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
	s.now, s.seq, s.firing = 0, 0, false
	s.fired, s.scheduled, s.cancelled, s.maxQueue = 0, 0, 0, 0
}

// Now reports the current simulated time.
func (s *Simulator) Now() Time { return s.now }

// Fired reports how many events have executed so far.
func (s *Simulator) Fired() uint64 { return s.fired }

// ErrPast reports an attempt to schedule an event before the current time.
var ErrPast = errors.New("desim: cannot schedule event in the past")

// pastPanic reports a schedule before the current time: a simulation bug,
// not a recoverable condition.
func (s *Simulator) pastPanic(t Time) {
	panic(fmt.Errorf("%w: now=%g, requested=%g", ErrPast, s.now, t))
}

// At schedules fn to run at absolute time t. It panics if t precedes the
// current time.
func (s *Simulator) At(t Time, fn func()) Handle {
	if t < s.now || math.IsNaN(t) {
		s.pastPanic(t)
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
	ev.fn = fn
	e := entry{at: t, seq: s.seq, idx: idx}
	s.seq++
	if s.firing {
		// Take the firing event's spent root: one sift-down instead of a
		// removal plus a sift-up. The queue keeps its length, which the
		// high-water mark has already seen.
		s.firing = false
		s.queue[0] = e
		s.siftDown(0)
	} else {
		s.queue = append(s.queue, e)
		s.siftUp(len(s.queue) - 1)
		if len(s.queue) > s.maxQueue {
			s.maxQueue = len(s.queue)
		}
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

// Reschedule moves the pending event h to fire fn at absolute time t and
// returns the new handle; h goes inert. The event is re-keyed in place
// with the next sequence number, so it fires exactly where h.Cancel()
// followed by At(t, fn) would put it, and it is counted and traced as
// that pair: one cancel and one schedule. When h is not pending (fired,
// cancelled, stale or zero), Reschedule is At(t, fn). It panics if t
// precedes the current time.
func (s *Simulator) Reschedule(h Handle, t Time, fn func()) Handle {
	if h.sim != s || !h.Pending() {
		return s.At(t, fn)
	}
	if t < s.now || math.IsNaN(t) {
		s.pastPanic(t)
	}
	ev := &s.arena[h.idx]
	e := &s.queue[ev.pos]
	s.cancelled++
	if s.tracer != nil {
		s.tracer.TraceEvent(TraceCancel, s.now, e.at)
	}
	ev.gen++
	ev.fn = fn
	e.at, e.seq = t, s.seq
	s.seq++
	s.fix(int(ev.pos))
	s.scheduled++
	if s.tracer != nil {
		s.tracer.TraceEvent(TraceSchedule, s.now, t)
	}
	return Handle{sim: s, idx: h.idx, gen: ev.gen}
}

// Run executes events in timestamp order until the queue is empty or the
// horizon is reached. Events scheduled exactly at the horizon do fire;
// later events stay queued. It returns the number of events executed
// during this call.
func (s *Simulator) Run(horizon Time) uint64 {
	s.dropFiring() // left behind by an event that panicked
	var count uint64
	for len(s.queue) > 0 {
		top := s.queue[0]
		if top.at > horizon {
			break
		}
		s.now = top.at
		fn := s.arena[top.idx].fn
		// Release before firing: the slot is immediately reusable by events
		// fn schedules, and handles to this event go inert — matching the
		// fired-event semantics (Pending false, Cancel a no-op). The entry
		// stays at the root for fn's first At to overwrite.
		s.release(top.idx)
		s.firing = true
		if s.tracer != nil {
			s.tracer.TraceEvent(TraceFire, s.now, s.now)
		}
		fn()
		s.dropFiring()
		s.fired++
		count++
	}
	if s.now < horizon && !math.IsInf(horizon, 1) {
		// Advance the clock to the horizon even if the queue drained, so
		// time-weighted statistics cover the whole window. RunAll (infinite
		// horizon) leaves the clock at the last event instead.
		s.now = horizon
	}
	return count
}

// RunAll executes events until the queue is empty.
func (s *Simulator) RunAll() uint64 {
	return s.Run(math.Inf(1))
}

// Pending reports the number of events still queued. Inside an event the
// executing event is not counted.
func (s *Simulator) Pending() int {
	if s.firing {
		return len(s.queue) - 1
	}
	return len(s.queue)
}

// dropFiring removes the firing event's spent root entry if no At has
// taken its place.
func (s *Simulator) dropFiring() {
	if s.firing {
		s.firing = false
		s.remove(0)
	}
}

// release returns a slot to the free list and advances its generation so
// outstanding handles to it go inert.
func (s *Simulator) release(idx int32) {
	ev := &s.arena[idx]
	ev.fn = nil // drop the closure reference for the garbage collector
	ev.gen++
	ev.pos = -1
	s.free = append(s.free, idx)
}

// less orders queue entries by (at, seq): FIFO among simultaneous events.
func less(a, b *entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// place stores e at queue position i and records the position in its slot.
func (s *Simulator) place(i int, e entry) {
	s.queue[i] = e
	s.arena[e.idx].pos = int32(i)
}

// remove deletes the entry at queue position i, keeping the heap valid.
// The entry's slot is left to the caller.
func (s *Simulator) remove(i int) {
	n := len(s.queue) - 1
	last := s.queue[n]
	s.queue = s.queue[:n]
	if i < n {
		s.queue[i] = last
		s.fix(i)
	}
}

// fix restores the heap property after the key at position i changed in
// either direction.
func (s *Simulator) fix(i int) {
	if i > 0 && less(&s.queue[i], &s.queue[(i-1)/2]) {
		s.siftUp(i)
	} else {
		s.siftDown(i)
	}
}

// siftUp restores the heap property from position i toward the root.
func (s *Simulator) siftUp(i int) {
	q := s.queue
	node := q[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !less(&node, &q[parent]) {
			break
		}
		s.place(i, q[parent])
		i = parent
	}
	s.place(i, node)
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
		if r := child + 1; r < n && less(&q[r], &q[child]) {
			child = r
		}
		if !less(&q[child], &node) {
			break
		}
		s.place(i, q[child])
		i = child
	}
	s.place(i, node)
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
}

// Average reports the time-weighted mean (NaN if no time has elapsed).
func (a *TimeAverage) Average() float64 {
	if a.duration == 0 {
		return math.NaN()
	}
	return a.area / a.duration
}
