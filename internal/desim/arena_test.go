package desim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestArenaSlotReuse verifies that firing returns slots to the free list:
// a bounded working set must not grow the arena no matter how many events
// pass through it.
func TestArenaSlotReuse(t *testing.T) {
	s := New()
	fn := func() {}
	for round := 0; round < 1000; round++ {
		s.After(1, fn)
		s.After(2, fn)
		s.Run(math.Inf(1))
	}
	if got := len(s.arena); got > 4 {
		t.Fatalf("arena grew to %d slots for a working set of 2", got)
	}
}

// TestArenaCancelThenRescheduleReusesSlot verifies the cancel→reuse
// cycle: a cancelled event's slot is reclaimed at once and handed to a
// later schedule.
func TestArenaCancelThenRescheduleReusesSlot(t *testing.T) {
	s := New()
	fired := false
	h := s.At(1, func() { t.Error("cancelled event fired") })
	if !h.Cancel() {
		t.Fatal("cancel failed")
	}
	if s.Pending() != 0 {
		t.Fatalf("cancelled event still queued: pending = %d", s.Pending())
	}
	size := len(s.arena)
	h2 := s.At(2, func() { fired = true })
	if got := len(s.arena); got != size {
		t.Fatalf("reschedule grew the arena %d -> %d instead of reusing the freed slot", size, got)
	}
	if !h2.Pending() {
		t.Fatal("rescheduled event not pending")
	}
	s.Run(math.Inf(1))
	if !fired {
		t.Fatal("rescheduled event did not fire")
	}
}

// TestHandleGenerationRecycling verifies that a handle to a dead event goes
// inert when its slot is recycled: it must not observe — or cancel — the
// new occupant.
func TestHandleGenerationRecycling(t *testing.T) {
	s := New()
	stale := s.At(1, func() {})
	s.Run(math.Inf(1)) // fires; slot released
	fired := false
	fresh := s.At(2, func() { fired = true }) // recycles the slot
	if stale.idx != fresh.idx {
		t.Fatalf("test premise broken: slots differ (%d vs %d)", stale.idx, fresh.idx)
	}
	if stale.Pending() {
		t.Fatal("stale handle reports pending after recycling")
	}
	if stale.Cancel() {
		t.Fatal("stale handle cancelled the slot's new occupant")
	}
	if !fresh.Pending() {
		t.Fatal("fresh handle not pending")
	}
	s.Run(math.Inf(1))
	if !fired {
		t.Fatal("recycled event did not fire")
	}
	if fresh.Pending() || fresh.Cancel() {
		t.Fatal("fired handle still live")
	}
}

// TestFIFOPropertyAgainstReference is the firing-order equivalence
// property: for randomized schedules dense with ties, the heap must fire
// events exactly as a stable sort by (time, schedule order) would.
func TestFIFOPropertyAgainstReference(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		n := 50 + rng.Intn(200)
		type ref struct {
			at  Time
			ord int
		}
		refs := make([]ref, 0, n)
		var got []int
		for i := 0; i < n; i++ {
			i := i
			at := Time(rng.Intn(8)) // few distinct times -> many ties
			refs = append(refs, ref{at: at, ord: i})
			s.At(at, func() { got = append(got, i) })
		}
		// Reference scheduler: stable sort on time keeps insertion order
		// within ties.
		sort.SliceStable(refs, func(a, b int) bool { return refs[a].at < refs[b].at })
		s.Run(math.Inf(1))
		if len(got) != n {
			t.Fatalf("seed %d: fired %d of %d", seed, len(got), n)
		}
		for i := range got {
			if got[i] != refs[i].ord {
				t.Fatalf("seed %d: firing order diverges from reference at %d: got %v", seed, i, got)
			}
		}
	}
}

// TestFIFOPropertyWithCancellations extends the reference property with
// random up-front cancellations.
func TestFIFOPropertyWithCancellations(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed + 1000))
		s := New()
		n := 100 + rng.Intn(300)
		type ev struct {
			at        Time
			ord       int
			cancelled bool
		}
		evs := make([]*ev, n)
		handles := make([]Handle, n)
		var got []int
		for i := 0; i < n; i++ {
			i := i
			evs[i] = &ev{at: Time(rng.Intn(10)), ord: i}
			handles[i] = s.At(evs[i].at, func() { got = append(got, i) })
		}
		// Cancel a random third up front.
		for i := range evs {
			if rng.Intn(3) == 0 {
				evs[i].cancelled = true
				if !handles[i].Cancel() {
					t.Fatalf("seed %d: cancel %d failed", seed, i)
				}
			}
		}
		want := make([]int, 0, n)
		for _, at := range []Time{0, 1, 2, 3, 4, 5, 6, 7, 8, 9} {
			for _, e := range evs {
				if e.at == at && !e.cancelled {
					want = append(want, e.ord)
				}
			}
		}
		s.Run(math.Inf(1))
		if len(got) != len(want) {
			t.Fatalf("seed %d: fired %d, want %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: order diverges at %d", seed, i)
			}
		}
	}
}

// TestFIFOPropertyWithReschedules drives the queue and a sort-based
// reference scheduler through the same random operations — schedules,
// cancels and reschedules, issued up front and from inside firing events,
// on pending, fired, cancelled and stale handles, to distinct and equal
// times — and requires every firing to be the reference's minimum by
// (time, schedule order). A reschedule is a cancel plus a schedule in the
// reference, so it must take the next place in schedule order. A firing
// event's first scheduler call, which takes over the event's spent queue
// entry, is in turn an At at the current time (behind its ties), an At
// later, a Reschedule or a Cancel of another pending event, or nothing.
// After every step, inside events too, the engine's counters and Pending
// must account for exactly the pending events.
func TestFIFOPropertyWithReschedules(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed + 2000))
		s := New()
		type refEv struct {
			at  Time
			ord int // schedule order; At and Reschedule both take the next
			id  int
		}
		var (
			ref     []refEv  // the reference's pending events
			handles []Handle // every handle ever returned, by event id
			ord     int
			fired   int
		)
		// executing is 1 inside a firing event: it has left the queue but
		// is not counted as fired until it returns.
		check := func(executing int) {
			t.Helper()
			st := s.Stats()
			if got := st.Scheduled - st.Fired - st.Cancelled; got != uint64(s.Pending()+executing) {
				t.Fatalf("seed %d: scheduled %d - fired %d - cancelled %d = %d, pending %d (+%d executing)",
					seed, st.Scheduled, st.Fired, st.Cancelled, got, s.Pending(), executing)
			}
			if s.Pending() != len(ref) {
				t.Fatalf("seed %d: pending %d, reference holds %d", seed, s.Pending(), len(ref))
			}
		}
		// drop removes event id from the reference, reporting whether it
		// was pending there.
		drop := func(id int) (refEv, bool) {
			for i, e := range ref {
				if e.id == id {
					ref = append(ref[:i], ref[i+1:]...)
					return e, true
				}
			}
			return refEv{}, false
		}
		var fire func(id int) func()
		push := func(at Time, h Handle) {
			ref = append(ref, refEv{at: at, ord: ord, id: len(handles)})
			ord++
			handles = append(handles, h)
		}
		act := func() {
			switch rng.Intn(4) {
			case 0:
				at := s.Now() + Time(rng.Intn(4))
				push(at, s.At(at, fire(len(handles))))
			case 1:
				id := rng.Intn(len(handles))
				_, pending := drop(id)
				if got := handles[id].Cancel(); got != pending {
					t.Fatalf("seed %d: Cancel(%d) = %v, reference pending %v", seed, id, got, pending)
				}
			default:
				id := rng.Intn(len(handles))
				old, pending := drop(id)
				at := s.Now() + Time(rng.Intn(4))
				if pending && rng.Intn(3) == 0 {
					at = old.at // same time: re-keyed behind its ties
				}
				push(at, s.Reschedule(handles[id], at, fire(len(handles))))
				if handles[id].Pending() {
					t.Fatalf("seed %d: handle %d still pending after Reschedule", seed, id)
				}
			}
		}
		// first makes a firing event's first scheduler call of the given
		// kind, reporting false for "nothing".
		first := func(kind int) bool {
			switch kind {
			case 0:
				push(s.Now(), s.At(s.Now(), fire(len(handles))))
			case 1:
				at := s.Now() + 1 + Time(rng.Intn(3))
				push(at, s.At(at, fire(len(handles))))
			case 2, 3:
				if len(ref) == 0 {
					return false
				}
				id := ref[rng.Intn(len(ref))].id
				drop(id)
				if kind == 3 {
					if !handles[id].Cancel() {
						t.Fatalf("seed %d: Cancel(%d) of a pending event failed", seed, id)
					}
					return true
				}
				at := s.Now() + Time(rng.Intn(4))
				push(at, s.Reschedule(handles[id], at, fire(len(handles))))
			default:
				return false
			}
			return true
		}
		fire = func(id int) func() {
			return func() {
				sort.Slice(ref, func(a, b int) bool {
					if ref[a].at != ref[b].at {
						return ref[a].at < ref[b].at
					}
					return ref[a].ord < ref[b].ord
				})
				if len(ref) == 0 || ref[0].id != id || ref[0].at != s.Now() {
					t.Fatalf("seed %d: fired event %d at %g, reference next is %v", seed, id, s.Now(), ref[:min(len(ref), 1)])
				}
				ref = ref[1:]
				fired++
				check(1)
				if fired < 500 && first(fired%5) {
					check(1)
					for k := rng.Intn(3); k > 0; k-- {
						act()
						check(1)
					}
				}
			}
		}
		for i := 0; i < 50; i++ {
			at := Time(rng.Intn(6))
			push(at, s.At(at, fire(len(handles))))
		}
		for i := 0; i < 100; i++ {
			act()
			check(0)
		}
		for step := Time(0); s.Pending() > 0; step++ {
			s.Run(step)
			check(0)
		}
		if fired == 0 {
			t.Fatalf("seed %d: nothing fired", seed)
		}
	}
}

// TestPanickingEventThenReset: an event that panics leaves its spent
// queue entry behind. Run must drop it and fire the rest in order, and a
// Reset after a second panic must leave a simulator that pops a fresh
// schedule in reference order.
func TestPanickingEventThenReset(t *testing.T) {
	s := New()
	var got []int
	boom := func() { panic("boom") }
	runPanics := func() {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatal("the panicking event did not panic")
			}
		}()
		s.Run(math.Inf(1))
	}
	s.At(1, func() { got = append(got, 1) })
	s.At(2, boom)
	s.At(2, func() { got = append(got, 2) })
	s.At(3, func() { got = append(got, 3) })
	runPanics()
	if s.Pending() != 2 {
		t.Fatalf("pending %d after the panic, want 2", s.Pending())
	}
	s.Run(math.Inf(1))
	if fmt.Sprint(got) != "[1 2 3]" {
		t.Fatalf("fired %v after the panic, want [1 2 3]", got)
	}

	s.At(4, boom)
	s.At(5, func() { t.Error("event from before Reset fired") })
	runPanics()
	s.Reset()
	if s.Pending() != 0 || s.Now() != 0 {
		t.Fatalf("Reset after a panic: pending %d, now %g", s.Pending(), s.Now())
	}
	rng := rand.New(rand.NewSource(4000))
	type ref struct {
		at  Time
		ord int
	}
	var refs []ref
	got = got[:0]
	for i := 0; i < 200; i++ {
		i := i
		at := Time(rng.Intn(8))
		refs = append(refs, ref{at: at, ord: i})
		s.At(at, func() { got = append(got, i) })
	}
	sort.SliceStable(refs, func(a, b int) bool { return refs[a].at < refs[b].at })
	s.Run(math.Inf(1))
	if len(got) != len(refs) {
		t.Fatalf("fired %d of %d after Reset", len(got), len(refs))
	}
	for i := range got {
		if got[i] != refs[i].ord {
			t.Fatalf("after Reset, firing order diverges from reference at %d", i)
		}
	}
}

// traceRecorder collects scheduler operations as "op at" lines.
type traceRecorder []string

func (r *traceRecorder) TraceEvent(op TraceOp, _, at Time) {
	*r = append(*r, fmt.Sprintf("%s %g", op, at))
}

// TestRescheduleCountsAndTracesCancelPlusSchedule pins Reschedule's
// accounting: re-keying a pending event counts and traces as one cancel
// (at its old time) then one schedule (at its new time), and a handle that
// is no longer pending falls back to a plain schedule.
func TestRescheduleCountsAndTracesCancelPlusSchedule(t *testing.T) {
	s := New()
	var rec traceRecorder
	s.SetTracer(&rec)
	fn := func() {}
	h := s.At(2, fn)
	rec = rec[:0]
	h2 := s.Reschedule(h, 3, fn)
	if want := []string{"cancel 2", "schedule 3"}; fmt.Sprint(rec) != fmt.Sprint(want) {
		t.Fatalf("traced reschedule = %q, want %q", rec, want)
	}
	if h.Pending() || !h2.Pending() {
		t.Fatalf("after Reschedule: old pending %v, new pending %v", h.Pending(), h2.Pending())
	}
	rec = rec[:0]
	s.Reschedule(h, 4, fn) // h went inert: a plain schedule
	if want := []string{"schedule 4"}; fmt.Sprint(rec) != fmt.Sprint(want) {
		t.Fatalf("traced reschedule of an inert handle = %q, want %q", rec, want)
	}
	st := s.Stats()
	if st.Scheduled != 3 || st.Cancelled != 1 || s.Pending() != 2 {
		t.Fatalf("stats %+v, pending %d; want 3 scheduled, 1 cancelled, 2 pending", st, s.Pending())
	}
}

// TestCancelRemovesEventsEagerly verifies that a cancel-heavy workload
// cannot grow the queue or the arena: Cancel takes its event off the heap
// and frees its slot at once.
func TestCancelRemovesEventsEagerly(t *testing.T) {
	s := New()
	fn := func() {}
	for i := 0; i < 10000; i++ {
		// A far-future event that is immediately replaced — the cluster
		// station reschedule pattern.
		h := s.After(1e12, fn)
		h.Cancel()
	}
	if got := s.Pending(); got > 256 {
		t.Fatalf("queue holds %d entries after 10000 cancels", got)
	}
	if got := len(s.arena); got > 256 {
		t.Fatalf("arena grew to %d slots under cancel churn", got)
	}
}

// TestScheduleFireNoAllocs pins the acceptance criterion directly: the
// steady-state schedule/fire path allocates nothing.
func TestScheduleFireNoAllocs(t *testing.T) {
	s := New()
	fn := func() {}
	// Prime capacity.
	for i := 0; i < 128; i++ {
		s.After(1, fn)
	}
	s.Run(math.Inf(1))
	avg := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 32; i++ {
			s.After(Time(i%5)+1, fn)
		}
		s.Run(math.Inf(1))
	})
	if avg != 0 {
		t.Fatalf("schedule/fire allocates %.2f allocs per round", avg)
	}
}

// TestCancelledEventKeepsClockSemantics: cancelling the head event must
// not advance the clock to its timestamp.
func TestCancelledEventKeepsClockSemantics(t *testing.T) {
	s := New()
	h := s.At(5, func() {})
	var at Time
	s.At(7, func() { at = s.Now() })
	h.Cancel()
	s.Run(math.Inf(1))
	if at != 7 {
		t.Fatalf("live event fired at %g", at)
	}
	if s.Now() != 7 {
		t.Fatalf("clock = %g, want 7 (cancelled event must not move it)", s.Now())
	}
}
