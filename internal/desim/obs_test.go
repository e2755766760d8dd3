package desim_test

import (
	"math"
	"testing"

	"repro/internal/desim"
	"repro/internal/obs"
)

func TestStatsCountEngineActivity(t *testing.T) {
	sim := desim.New()
	h := sim.After(10, func() {})
	for i := 0; i < 5; i++ {
		sim.After(float64(i)+1, func() {})
	}
	h.Cancel()
	sim.Run(math.Inf(1))
	st := sim.Stats()
	if st.Scheduled != 6 {
		t.Fatalf("scheduled = %d, want 6", st.Scheduled)
	}
	if st.Fired != 5 {
		t.Fatalf("fired = %d, want 5", st.Fired)
	}
	if st.Cancelled != 1 {
		t.Fatalf("cancelled = %d, want 1", st.Cancelled)
	}
	if st.MaxQueue != 6 {
		t.Fatalf("queue high water = %d, want 6", st.MaxQueue)
	}
	if st.ArenaSlots == 0 {
		t.Fatal("arena slots = 0")
	}
}

func TestRegisterSimulatorSnapshot(t *testing.T) {
	reg := obs.NewRegistry()
	sim := desim.New()
	obs.RegisterSimulator(reg, "desim", sim)
	sim.After(1, func() {})
	sim.Run(math.Inf(1))
	s := reg.Snapshot()
	if s.Counters["desim/events_scheduled"] != 1 || s.Counters["desim/events_fired"] != 1 {
		t.Fatalf("snapshot counters = %v", s.Counters)
	}
	if s.Gauges["desim/queue_high_water"] != 1 {
		t.Fatalf("snapshot gauges = %v", s.Gauges)
	}
}

// TestScheduleFireNoAllocsWithMetrics is the allocation regression test
// for the instrumented engine: the schedule→fire path must stay at
// 0 allocs/op with the engine counters live and the simulator registered
// in an observability registry (PR 2 bought this property; the
// observability layer must not spend it). Snapshots are taken between
// measured rounds to prove collection does not perturb the hot path.
func TestScheduleFireNoAllocsWithMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	sim := desim.New()
	obs.RegisterSimulator(reg, "desim", sim)
	fn := func() {}
	// Prime arena, free list and heap so steady state excludes growth.
	for k := 0; k < 64; k++ {
		sim.After(desim.Time(k%7)+1, fn)
	}
	sim.Run(math.Inf(1))

	if n := testing.AllocsPerRun(200, func() {
		for k := 0; k < 64; k++ {
			sim.After(desim.Time(k%7)+1, fn)
		}
		h := sim.After(100, fn)
		h.Cancel()
		// The station pattern: one pending event re-keyed repeatedly.
		p := sim.After(50, fn)
		for k := 0; k < 16; k++ {
			p = sim.Reschedule(p, sim.Now()+desim.Time(k%3)+1, fn)
		}
		sim.Run(math.Inf(1))
	}); n != 0 {
		t.Fatalf("instrumented schedule/fire path allocates %v allocs/op, want 0", n)
	}
	if s := reg.Snapshot(); s.Counters["desim/events_fired"] == 0 {
		t.Fatal("metrics were not live during the allocation test")
	}
}
