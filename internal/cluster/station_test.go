package cluster

import (
	"math"
	"testing"

	"repro/internal/desim"
)

// stationHarness wires a station to a simulator and records completions.
type stationHarness struct {
	sim  *desim.Simulator
	st   *station
	done []*request
}

func newStationHarness(capacity float64) *stationHarness {
	h := &stationHarness{sim: desim.New()}
	h.st = newStation(h.sim, "test", capacity, func(req *request, _ *station) {
		h.done = append(h.done, req)
	})
	return h
}

func TestStationSingleJob(t *testing.T) {
	h := newStationHarness(1)
	req := &request{}
	h.st.add(req, 2.0)
	h.sim.Run(math.Inf(1))
	if len(h.done) != 1 || h.done[0] != req {
		t.Fatal("job did not complete")
	}
	if h.sim.Now() != 2.0 {
		t.Fatalf("completion at %g, want 2", h.sim.Now())
	}
}

func TestStationProcessorSharing(t *testing.T) {
	// Two equal jobs sharing capacity 1: both finish at 2*work.
	h := newStationHarness(1)
	a, b := &request{}, &request{}
	h.st.add(a, 1.0)
	h.st.add(b, 1.0)
	h.sim.Run(math.Inf(1))
	if len(h.done) != 2 {
		t.Fatalf("completions: %d", len(h.done))
	}
	if math.Abs(h.sim.Now()-2.0) > 1e-9 {
		t.Fatalf("last completion at %g, want 2", h.sim.Now())
	}
}

func TestStationUnequalJobs(t *testing.T) {
	// Jobs of work 1 and 3 under PS: the short one leaves at t=2 (each
	// drains at 1/2), then the long one drains alone: 3-1=2 left at rate 1
	// -> t=4.
	h := newStationHarness(1)
	short, long := &request{}, &request{}
	h.st.add(short, 1.0)
	h.st.add(long, 3.0)

	var firstDone, lastDone desim.Time
	h.st.onDone = func(req *request, _ *station) {
		if req == short {
			firstDone = h.sim.Now()
		} else {
			lastDone = h.sim.Now()
		}
	}
	h.sim.Run(math.Inf(1))
	if math.Abs(firstDone-2.0) > 1e-9 {
		t.Fatalf("short job at %g, want 2", firstDone)
	}
	if math.Abs(lastDone-4.0) > 1e-9 {
		t.Fatalf("long job at %g, want 4", lastDone)
	}
}

func TestStationLateArrival(t *testing.T) {
	// Job A (work 2) alone for 1 s, then B (work 1) joins. A has 1 left;
	// both drain at 1/2. B finishes at t=3; A at t=3 too (both had 1 left
	// at t=1... A: 1 left, B: 1 left, equal -> both at t=3).
	h := newStationHarness(1)
	a, b := &request{}, &request{}
	h.st.add(a, 2.0)
	h.sim.At(1.0, func() { h.st.add(b, 1.0) })
	h.sim.Run(math.Inf(1))
	if len(h.done) != 2 {
		t.Fatalf("completions: %d", len(h.done))
	}
	if math.Abs(h.sim.Now()-3.0) > 1e-9 {
		t.Fatalf("finished at %g, want 3", h.sim.Now())
	}
}

func TestStationCapacityScaling(t *testing.T) {
	// Capacity 2 halves completion times.
	h := newStationHarness(2)
	h.st.add(&request{}, 2.0)
	h.sim.Run(math.Inf(1))
	if math.Abs(h.sim.Now()-1.0) > 1e-9 {
		t.Fatalf("finished at %g, want 1", h.sim.Now())
	}
}

func TestStationSetCapacityMidFlight(t *testing.T) {
	// Work 2 at capacity 1; at t=1 capacity drops to 0.5: 1 unit left at
	// rate 0.5 -> finishes at t=3.
	h := newStationHarness(1)
	h.st.add(&request{}, 2.0)
	h.sim.At(1.0, func() { h.st.setCapacity(0.5) })
	h.sim.Run(math.Inf(1))
	if math.Abs(h.sim.Now()-3.0) > 1e-9 {
		t.Fatalf("finished at %g, want 3", h.sim.Now())
	}
}

func TestStationZeroCapacityStalls(t *testing.T) {
	h := newStationHarness(1)
	h.st.add(&request{}, 1.0)
	h.sim.At(0.5, func() { h.st.setCapacity(0) })
	h.sim.Run(100)
	if len(h.done) != 0 {
		t.Fatal("job completed with zero capacity")
	}
	// Restore capacity: remaining 0.5 drains.
	var doneAt desim.Time
	h.st.onDone = func(*request, *station) { doneAt = h.sim.Now() }
	h.st.setCapacity(1)
	h.sim.Run(200)
	if math.Abs(doneAt-100.5) > 1e-9 {
		t.Fatalf("finished at %g, want 100.5", doneAt)
	}
}

func TestStationClear(t *testing.T) {
	h := newStationHarness(1)
	a, b := &request{}, &request{}
	h.st.add(a, 5)
	h.st.add(b, 5)
	victims := h.st.clear()
	if len(victims) != 2 {
		t.Fatalf("cleared %d jobs", len(victims))
	}
	h.sim.Run(math.Inf(1))
	if len(h.done) != 0 {
		t.Fatal("cleared jobs completed")
	}
}

func TestStationUtilizationAndWork(t *testing.T) {
	h := newStationHarness(1)
	h.st.add(&request{}, 1.0) // busy [0, 1]
	h.sim.At(3.0, func() { h.st.add(&request{}, 1.0) })
	h.sim.Run(math.Inf(1)) // busy [3, 4]
	h.st.advance()
	if math.Abs(h.st.workDone-2.0) > 1e-9 {
		t.Fatalf("work done %g, want 2", h.st.workDone)
	}
}

func TestStationSimultaneousCompletions(t *testing.T) {
	// Equal works complete together in one event.
	h := newStationHarness(1)
	for i := 0; i < 5; i++ {
		h.st.add(&request{}, 1.0)
	}
	h.sim.Run(math.Inf(1))
	if len(h.done) != 5 {
		t.Fatalf("completions: %d", len(h.done))
	}
	if math.Abs(h.sim.Now()-5.0) > 1e-9 {
		t.Fatalf("finished at %g, want 5", h.sim.Now())
	}
}

func TestStationZeroWorkCompletesImmediately(t *testing.T) {
	h := newStationHarness(1)
	h.st.add(&request{}, 0)
	h.sim.Run(math.Inf(1))
	if len(h.done) != 1 {
		t.Fatal("zero-work job did not complete")
	}
	if h.sim.Now() != 0 {
		t.Fatalf("completed at %g", h.sim.Now())
	}
}
