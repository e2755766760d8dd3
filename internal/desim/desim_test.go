package desim

import (
	"math"
	"testing"
)

// Pending reports the number of events still queued. Inside an event the
// executing event is not counted.
func (s *Simulator) Pending() int {
	if s.firing {
		return len(s.queue) - 1
	}
	return len(s.queue)
}

func TestEventsFireInOrder(t *testing.T) {
	s := New()
	var order []int
	s.At(3, func() { order = append(order, 3) })
	s.At(1, func() { order = append(order, 1) })
	s.At(2, func() { order = append(order, 2) })
	n := s.Run(math.Inf(1))
	if n != 3 {
		t.Fatalf("fired %d events", n)
	}
	for i, v := range []int{1, 2, 3} {
		if order[i] != v {
			t.Fatalf("order = %v", order)
		}
	}
	if s.Now() != 3 {
		t.Fatalf("clock = %g", s.Now())
	}
}

func TestSimultaneousEventsAreFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { order = append(order, i) })
	}
	s.Run(math.Inf(1))
	for i := range order {
		if order[i] != i {
			t.Fatalf("ties not FIFO: %v", order)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	s := New()
	var fireTime Time
	s.At(10, func() {
		s.After(5, func() { fireTime = s.Now() })
	})
	s.Run(math.Inf(1))
	if fireTime != 15 {
		t.Fatalf("After fired at %g", fireTime)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.At(10, func() {})
	s.Run(math.Inf(1))
	defer func() {
		if recover() == nil {
			t.Fatal("past scheduling did not panic")
		}
	}()
	s.At(5, func() {})
}

func TestNegativeAfterPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("negative After did not panic")
		}
	}()
	s.After(-1, func() {})
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	h := s.At(1, func() { fired = true })
	if !h.Pending() {
		t.Fatal("handle should be pending")
	}
	if !h.Cancel() {
		t.Fatal("first cancel should succeed")
	}
	if h.Cancel() {
		t.Fatal("second cancel should be a no-op")
	}
	if h.Pending() {
		t.Fatal("cancelled handle still pending")
	}
	s.Run(math.Inf(1))
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelAfterFire(t *testing.T) {
	s := New()
	h := s.At(1, func() {})
	s.Run(math.Inf(1))
	if h.Cancel() {
		t.Fatal("cancel after fire should fail")
	}
	if h.Pending() {
		t.Fatal("fired handle still pending")
	}
}

func TestRunHorizon(t *testing.T) {
	s := New()
	var fired []Time
	for _, at := range []Time{1, 2, 3, 4, 5} {
		at := at
		s.At(at, func() { fired = append(fired, at) })
	}
	n := s.Run(3) // events at the horizon fire
	if n != 3 {
		t.Fatalf("fired %d events before horizon", n)
	}
	if s.Now() != 3 {
		t.Fatalf("clock = %g after horizon run", s.Now())
	}
	if s.Pending() != 2 {
		t.Fatalf("pending = %d", s.Pending())
	}
	// Continue to the end.
	s.Run(100)
	if len(fired) != 5 {
		t.Fatalf("total fired = %d", len(fired))
	}
	// Clock advances to the horizon even with an empty queue.
	if s.Now() != 100 {
		t.Fatalf("clock = %g", s.Now())
	}
}

func TestCascadingEvents(t *testing.T) {
	// An M/D/1-style self-scheduling chain: each event schedules the next.
	s := New()
	count := 0
	var step func()
	step = func() {
		count++
		if count < 1000 {
			s.After(1, step)
		}
	}
	s.At(0, step)
	s.Run(math.Inf(1))
	if count != 1000 {
		t.Fatalf("chain executed %d steps", count)
	}
	if s.Now() != 999 {
		t.Fatalf("clock = %g", s.Now())
	}
	if s.Stats().Fired != 1000 {
		t.Fatalf("fired = %d", s.Stats().Fired)
	}
}

// resetWorkload is a deterministic event script touching scheduling,
// relative scheduling, cancellation and FIFO ties; it returns the fire
// trace so runs on different simulators can be compared exactly.
func resetWorkload(s *Simulator) []Time {
	var trace []Time
	record := func() { trace = append(trace, s.Now()) }
	s.At(3, record)
	s.At(1, func() {
		record()
		s.After(0.5, record)
	})
	s.At(2, record) // FIFO tie with the cancelled twin below
	s.At(2, record).Cancel()
	s.Run(math.Inf(1))
	return trace
}

// TestResetMatchesFresh: a reset simulator must be indistinguishable from
// a fresh one — same fire order, same clock, same counters — while keeping
// its arena (that is the whole point of reuse).
func TestResetMatchesFresh(t *testing.T) {
	want := resetWorkload(New())

	s := New()
	resetWorkload(s)
	slots := s.Stats().ArenaSlots
	if slots == 0 {
		t.Fatal("workload grew no arena slots")
	}
	s.Reset()
	if s.Now() != 0 || s.Pending() != 0 || s.Stats().Fired != 0 || s.Stats().Scheduled != 0 {
		t.Fatalf("Reset left state behind: now=%g pending=%d stats=%+v", s.Now(), s.Pending(), s.Stats())
	}
	if got := s.Stats().ArenaSlots; got != slots {
		t.Fatalf("Reset resized the arena: %d -> %d slots", slots, got)
	}

	got := resetWorkload(s)
	if len(got) != len(want) {
		t.Fatalf("reset run fired %d events, fresh fired %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fire trace diverged at %d: reset=%v fresh=%v", i, got, want)
		}
	}
}

// TestResetInertsStaleHandles: handles created before a Reset must neither
// report pending nor cancel whatever event now occupies their old slot.
func TestResetInertsStaleHandles(t *testing.T) {
	s := New()
	stale := s.At(5, func() { t.Error("event from before Reset fired") })
	s.Reset()
	if stale.Pending() {
		t.Fatal("stale handle still pending after Reset")
	}
	if stale.Cancel() {
		t.Fatal("stale handle cancelled something after Reset")
	}

	// The stale handle's slot is recycled by the next schedule; the stale
	// handle must not be able to kill the new occupant.
	fired := false
	s.At(1, func() { fired = true })
	stale.Cancel()
	s.Run(math.Inf(1))
	if !fired {
		t.Fatal("stale handle cancelled a post-Reset event")
	}
}

func TestTimeAverage(t *testing.T) {
	var a TimeAverage
	a.Set(0, 1)  // value 1 on [0, 10)
	a.Set(10, 3) // value 3 on [10, 20)
	a.Finish(20)
	if math.Abs(a.Average()-2) > 1e-12 {
		t.Fatalf("average = %g", a.Average())
	}
}

func TestTimeAverageEmpty(t *testing.T) {
	var a TimeAverage
	if !math.IsNaN(a.Average()) {
		t.Fatal("empty TimeAverage should be NaN")
	}
}

func TestTimeAverageZeroWidthUpdates(t *testing.T) {
	var a TimeAverage
	a.Set(0, 5)
	a.Set(0, 7) // zero-width segment contributes nothing
	a.Finish(10)
	if math.Abs(a.Average()-7) > 1e-12 {
		t.Fatalf("average = %g", a.Average())
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := New()
		for k := 0; k < 1000; k++ {
			s.At(Time(k%17), func() {})
		}
		s.Run(math.Inf(1))
	}
}
