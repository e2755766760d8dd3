package cluster

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/desim"
)

// TestStationUtilizationWindowedAtWarmup is the regression test for the
// warmup-window contract: the work behind the utilization must cover
// [warmup, now] only. Load is asymmetric around the boundary — busy 100%
// of the pre-warmup interval and 25% of the post-warmup one — so counting
// the transient in would report 3 units instead of 1.
func TestStationUtilizationWindowedAtWarmup(t *testing.T) {
	h := newStationHarness(1)
	h.st.add(&request{}, 2.0) // busy [0, 2]: the whole pre-warmup window
	h.sim.At(2.0, func() { h.st.snapshotWarmup() })
	h.sim.At(2.0, func() { h.st.add(&request{}, 1.0) }) // busy [2, 3]
	h.sim.Run(6.0)
	// 1 unit delivered in [2, 6].
	h.st.advance()
	if got := h.st.windowWork(); math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("windowWork = %g, want 1", got)
	}
}

// refStation is the pre-rewrite O(k)-per-event processor-sharing physics,
// kept verbatim as the oracle for the virtual-time formulation: per-job
// remaining-work counters drained by capacity/k·dt on every event, linear
// scans for the minimum, and completion collection by threshold on
// remaining work.
type refStation struct {
	capacity   float64
	jobs       []*refJob
	sim        *desim.Simulator
	lastUpdate desim.Time
	pending    desim.Handle
	onDone     func(id int)
}

type refJob struct {
	id        int
	remaining float64
}

func newRefStation(sim *desim.Simulator, capacity float64, onDone func(int)) *refStation {
	return &refStation{capacity: capacity, sim: sim, lastUpdate: sim.Now(), onDone: onDone}
}

func (st *refStation) advance() {
	now := st.sim.Now()
	dt := now - st.lastUpdate
	st.lastUpdate = now
	if dt <= 0 || len(st.jobs) == 0 {
		return
	}
	drained := st.capacity / float64(len(st.jobs)) * dt
	for _, j := range st.jobs {
		j.remaining -= drained
		if j.remaining < 0 {
			j.remaining = 0
		}
	}
}

func (st *refStation) add(id int, work float64) {
	st.advance()
	st.jobs = append(st.jobs, &refJob{id: id, remaining: math.Max(work, 0)})
	st.reschedule()
}

func (st *refStation) setCapacity(c float64) {
	st.advance()
	if c < 0 {
		c = 0
	}
	st.capacity = c
	st.reschedule()
}

func (st *refStation) reschedule() {
	if st.pending.Pending() {
		st.pending.Cancel()
	}
	if len(st.jobs) == 0 || st.capacity <= 0 {
		return
	}
	minRemaining := math.Inf(1)
	for _, j := range st.jobs {
		if j.remaining < minRemaining {
			minRemaining = j.remaining
		}
	}
	st.pending = st.sim.After(minRemaining*float64(len(st.jobs))/st.capacity, st.complete)
}

func (st *refStation) complete() {
	st.advance()
	var done []*refJob
	kept := st.jobs[:0]
	for _, j := range st.jobs {
		if j.remaining <= 1e-12 {
			done = append(done, j)
		} else {
			kept = append(kept, j)
		}
	}
	st.jobs = kept
	st.reschedule()
	for _, j := range done {
		st.onDone(j.id)
	}
}

// TestStationMatchesReferencePhysics drives the virtual-time station and
// the pre-rewrite reference through identical randomized schedules of
// arrivals and capacity changes, and requires identical completion order
// with completion times matching to float tolerance.
func TestStationMatchesReferencePhysics(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		type completion struct {
			id int
			at desim.Time
		}
		runOne := func(impl string) []completion {
			// A fresh identically seeded stream per run: both runs draw the
			// same operation sequence and the same work samples.
			rng := rand.New(rand.NewSource(seed))
			sim := desim.New()
			var got []completion
			var addNew func(id int) // wired per implementation below

			newSt := newStation(sim, "vt", 1, nil)
			refSt := newRefStation(sim, 1, nil)
			if impl == "vt" {
				newSt.onDone = func(req *request, _ *station) {
					got = append(got, completion{id: req.service, at: sim.Now()})
				}
			} else {
				refSt.onDone = func(id int) {
					got = append(got, completion{id: id, at: sim.Now()})
				}
			}

			addNew = func(id int) {
				work := rng.ExpFloat64() * 0.5
				if impl == "vt" {
					newSt.add(&request{service: id}, work)
				} else {
					refSt.add(id, work)
				}
			}

			// A randomized schedule of operations at random times. The rng
			// draws are identical across the two runs because the operation
			// sequence is generated identically (same seed, same draw
			// order).
			tNow := 0.0
			for op := 0; op < 120; op++ {
				tNow += rng.ExpFloat64() * 0.2
				at := tNow
				id := op
				if rng.Intn(4) < 3 { // arrival
					sim.At(at, func() { addNew(id) })
				} else { // capacity change
					c := 0.25 + rng.Float64()*1.5
					sim.At(at, func() {
						if impl == "vt" {
							newSt.setCapacity(c)
						} else {
							refSt.setCapacity(c)
						}
					})
				}
			}
			sim.Run(tNow + 1000)
			return got
		}

		vt := runOne("vt")
		ref := runOne("ref")
		if len(vt) != len(ref) {
			t.Fatalf("seed %d: %d completions vs reference %d", seed, len(vt), len(ref))
		}
		for i := range vt {
			if vt[i].id != ref[i].id {
				t.Fatalf("seed %d: completion %d is job %d, reference job %d", seed, i, vt[i].id, ref[i].id)
			}
			if math.Abs(vt[i].at-ref[i].at) > 1e-9*math.Max(1, ref[i].at) {
				t.Fatalf("seed %d: job %d completes at %.15g, reference %.15g", seed, vt[i].id, vt[i].at, ref[i].at)
			}
		}
	}
}

// TestStationBacklog checks the Rainbow rebalancing input: outstanding work
// drained to the current instant.
func TestStationBacklog(t *testing.T) {
	h := newStationHarness(1)
	h.st.add(&request{}, 2.0)
	h.st.add(&request{}, 4.0)
	if got := h.st.backlog(); math.Abs(got-6.0) > 1e-9 {
		t.Fatalf("backlog = %g, want 6", got)
	}
	// After 1s at capacity 1 shared by 2 jobs, each drained 0.5.
	h.sim.At(1.0, func() {
		if got := h.st.backlog(); math.Abs(got-5.0) > 1e-9 {
			t.Fatalf("backlog at t=1 = %g, want 5", got)
		}
	})
	h.sim.Run(math.Inf(1))
	if got := h.st.backlog(); got != 0 {
		t.Fatalf("backlog after drain = %g, want 0", got)
	}
}

// TestStationClearReturnsAdmissionOrder pins the deterministic failure
// path: clear reports victims in admission order regardless of their heap
// arrangement.
func TestStationClearReturnsAdmissionOrder(t *testing.T) {
	h := newStationHarness(1)
	// Decreasing work => heap order is the reverse of admission order.
	for i := 0; i < 6; i++ {
		h.st.add(&request{service: i}, float64(6-i))
	}
	victims := h.st.clear()
	if len(victims) != 6 {
		t.Fatalf("cleared %d jobs", len(victims))
	}
	for i, req := range victims {
		if req.service != i {
			t.Fatalf("victim %d is service %d, want admission order", i, req.service)
		}
	}
}
