package desim

import "testing"

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
	s.RunAll()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < batchSize; k++ {
			s.After(Time(k%7)+1, fn)
		}
		s.RunAll()
	}
}

// BenchmarkDesimScheduleCancel measures the schedule→cancel→reap path —
// the cluster simulator's reschedule pattern, where nearly every pending
// completion event is cancelled and replaced before it fires.
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
		s.RunAll() // fires tick, reaps the cancelled event
	}
}
