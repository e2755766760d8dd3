// Package cluster simulates the paper's testbed: pools of physical servers
// hosting Internet services either on dedicated native-Linux machines or
// consolidated onto Xen hosts as one VM per service, with LVS-style
// round-robin request dispatch, per-resource processor-sharing contention,
// virtualization overhead from the internal/virt curves, optional on-demand
// resource flowing between VMs (Rainbow), closed- and open-loop load
// generation, admission-control losses, host failure injection, and power
// metering hooks.
//
// The physical model: every host owns one station per resource type. A
// station is a processor-sharing server of capacity 1 work-unit/second; a
// request deposits, on each resource it touches, an amount of work equal to
// its sampled native demand divided by the virtualization impact factor for
// its service on that resource (consolidated hosts only). Work drains at
// capacity/k when k jobs share the station. A request finishes when its
// work on every station has drained; its response time is the makespan.
// Saturation, contention knees, response-time explosions and loss behaviour
// all emerge from this shared-capacity physics.
//
// Stations implement processor sharing in virtual time: V accumulates the
// service attained by every resident job (dV/dt = capacity/k), a job
// admitted at V_admit with w units of work finishes when V reaches the
// fixed threshold V_admit + w, and jobs sit in a min-heap keyed by that
// threshold. Advancing the clock is O(1) regardless of occupancy,
// admission and completion are O(log k); no per-event scan over resident
// jobs remains.
package cluster

import (
	"math"
	"sort"

	"repro/internal/desim"
)

// job is one request's work on one station, held by value in the
// station's heap.
type job struct {
	threshold float64 // attained-service level V at which the job completes
	seq       uint64  // admission order; FIFO tie-break for equal thresholds
	req       *request
}

// station is a processor-sharing resource server.
type station struct {
	name     string
	capacity float64 // work units per second when any job present
	jobs     []job   // min-heap keyed by (threshold, seq)

	// V is the attained-service accumulator: the total service any job
	// resident since station creation would have received. Thresholds are
	// expressed on this axis, so capacity changes only alter dV/dt going
	// forward — setCapacity rebases by draining at the old rate first.
	V   float64
	seq uint64 // next admission sequence number

	sim        *desim.Simulator
	lastUpdate desim.Time
	occ        desim.TimeAverage // resident-job count over [warmup, now]
	advances   uint64            // virtual-time advance count (observability)
	workDone   float64
	warmWork   float64 // workDone at the warmup boundary

	pending    desim.Handle // the station's next-completion event
	completeFn func()       // cached method value; avoids an alloc per reschedule
	doneBuf    []*request   // scratch for complete; reused across events
	onDone     func(*request, *station)
}

func newStation(sim *desim.Simulator, name string, capacity float64, onDone func(*request, *station)) *station {
	st := &station{
		name:     name,
		capacity: capacity,
		sim:      sim,
		onDone:   onDone,
	}
	st.completeFn = st.complete
	st.occ.Set(sim.Now(), 0)
	st.lastUpdate = sim.Now()
	return st
}

// advance accrues attained service for the elapsed time since the last
// update: O(1), independent of occupancy.
func (st *station) advance() {
	now := st.sim.Now()
	dt := now - st.lastUpdate
	st.lastUpdate = now
	k := len(st.jobs)
	if dt <= 0 || k == 0 {
		return
	}
	st.advances++
	st.V += st.capacity / float64(k) * dt
	st.workDone += st.capacity * dt
}

// snapshotWarmup records the work delivered so far and restarts the
// occupancy observation window, marking the start of the measurement
// interval.
// advance is idempotent at a fixed timestamp (work deposited at the
// boundary drains only after it), so the snapshot does not depend on event
// ordering within the boundary instant.
func (st *station) snapshotWarmup() {
	st.advance()
	st.warmWork = st.workDone
	st.occ.Reset(st.sim.Now())
}

// windowWork reports the work delivered since the warmup snapshot.
func (st *station) windowWork() float64 { return st.workDone - st.warmWork }

// setCapacity changes the station's capacity (resource flowing / Rainbow
// rebalancing), draining work at the old rate first so V is rebased to the
// boundary before the new rate applies.
func (st *station) setCapacity(c float64) {
	st.advance()
	if c < 0 {
		c = 0
	}
	st.capacity = c
	st.reschedule()
}

// add deposits work for req.
func (st *station) add(req *request, work float64) {
	st.advance()
	st.pushJob(job{threshold: st.V + math.Max(work, 0), seq: st.seq, req: req})
	st.seq++
	st.occ.Set(st.sim.Now(), float64(len(st.jobs)))
	st.reschedule()
}

// reschedule recomputes the station's next completion event from the
// earliest threshold: O(1) plus the event-queue operation, which re-keys
// the pending completion in place.
func (st *station) reschedule() {
	if len(st.jobs) == 0 || st.capacity <= 0 {
		st.pending.Cancel()
		return
	}
	// The min job completes when V grows by (threshold - V), and V grows at
	// capacity/k per second.
	eta := (st.jobs[0].threshold - st.V) * float64(len(st.jobs)) / st.capacity
	if eta < 0 {
		eta = 0
	}
	st.pending = st.sim.Reschedule(st.pending, st.sim.Now()+eta, st.completeFn)
}

// completeEps absorbs float residue when deciding whether a job's threshold
// has been reached, scaled to V because threshold-V is a difference of
// like-magnitude accumulators.
const completeEps = 1e-12

// complete fires when the earliest job's threshold is reached. The event
// was scheduled for exactly the heap minimum, so at least one job is due;
// further jobs sharing the threshold (ties) complete in the same event, in
// admission order by the heap's seq tie-break.
func (st *station) complete() {
	st.advance()
	done := st.doneBuf[:0]
	eps := completeEps * math.Max(1, st.V)
	for len(st.jobs) > 0 {
		if len(done) > 0 && st.jobs[0].threshold-st.V > eps {
			break
		}
		done = append(done, st.popJob())
	}
	st.occ.Set(st.sim.Now(), float64(len(st.jobs)))
	st.reschedule()
	for _, req := range done {
		st.onDone(req, st)
	}
	st.doneBuf = done[:0]
}

// backlog reports the total outstanding work on the station, first
// draining up to now (the Rainbow allocators' rebalancing input).
func (st *station) backlog() float64 {
	st.advance()
	total := 0.0
	for i := range st.jobs {
		total += max(st.jobs[i].threshold-st.V, 0)
	}
	return total
}

// meanOccupancy reports the time-average resident-job count over the
// current observation window: [warmup, now] once snapshotWarmup has run,
// [0, now] otherwise.
func (st *station) meanOccupancy(now desim.Time) float64 {
	st.occ.Finish(now)
	v := st.occ.Average()
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// clear drops all jobs (host failure) and returns the affected requests in
// admission order, keeping failure handling deterministic.
func (st *station) clear() []*request {
	st.advance()
	if len(st.jobs) == 0 {
		st.reschedule()
		return nil
	}
	jobs := st.jobs
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].seq < jobs[k].seq })
	reqs := make([]*request, len(jobs))
	for i := range jobs {
		reqs[i] = jobs[i].req
	}
	st.jobs = jobs[:0]
	st.occ.Set(st.sim.Now(), 0)
	st.reschedule()
	return reqs
}

// Job-heap primitives: a binary min-heap over (threshold, seq), sifting
// a hole so each level moves one job.

func jobLess(a, b *job) bool {
	if a.threshold != b.threshold {
		return a.threshold < b.threshold
	}
	return a.seq < b.seq
}

func (st *station) pushJob(j job) {
	st.jobs = append(st.jobs, j)
	jobs := st.jobs
	i := len(jobs) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !jobLess(&j, &jobs[parent]) {
			break
		}
		jobs[i] = jobs[parent]
		i = parent
	}
	jobs[i] = j
}

// popJob removes the minimum job and returns its request.
func (st *station) popJob() *request {
	jobs := st.jobs
	req := jobs[0].req
	n := len(jobs) - 1
	node := jobs[n]
	jobs = jobs[:n]
	st.jobs = jobs
	if n == 0 {
		return req
	}
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && jobLess(&jobs[r], &jobs[child]) {
			child = r
		}
		if !jobLess(&jobs[child], &node) {
			break
		}
		jobs[i] = jobs[child]
		i = child
	}
	jobs[i] = node
	return req
}
