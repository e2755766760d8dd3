package desim

import (
	"math"
	"testing"
)

// BenchmarkDesimSchedule measures the schedule→fire round trip: each
// iteration schedules batchSize events at staggered times and drains them.
// The event arena must keep this path allocation-free in steady state (slot
// reuse through the free list; heap and arena capacity retained across
// iterations), so allocs/op reports 0.
func BenchmarkDesimSchedule(b *testing.B) {
	const batchSize = 64
	s := New()
	fn := func() {}
	// Prime the arena and heap so growth is excluded from the steady state.
	for k := 0; k < batchSize; k++ {
		s.After(Time(k%7)+1, fn)
	}
	s.Run(math.Inf(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < batchSize; k++ {
			s.After(Time(k%7)+1, fn)
		}
		s.Run(math.Inf(1))
	}
}

// BenchmarkDesimScheduleCancel measures the schedule→cancel path: the
// cancelled event leaves the heap at once, beside a live one that fires.
func BenchmarkDesimScheduleCancel(b *testing.B) {
	s := New()
	fn := func() {}
	tick := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := s.After(2, fn)
		h.Cancel()
		s.After(1, tick)
		s.Run(math.Inf(1))
	}
}

// BenchmarkDesimReschedule measures the cluster station pattern: one
// pending completion event, re-keyed in place on every arrival and
// departure at the station, then fired. Each iteration re-keys it eight
// times before it fires.
func BenchmarkDesimReschedule(b *testing.B) {
	s := New()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := s.After(1, fn)
		for k := 0; k < 8; k++ {
			h = s.Reschedule(h, s.Now()+Time(k%4)+0.5, fn)
		}
		s.Run(math.Inf(1))
	}
}
