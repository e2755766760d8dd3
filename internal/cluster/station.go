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

// jobRef tracks one request's work on one station.
type jobRef struct {
	req       *request
	threshold float64 // attained-service level V at which the job completes
	seq       uint64  // admission order; FIFO tie-break for equal thresholds
	heapIdx   int     // position in station.jobs, maintained by the heap ops
}

// station is a processor-sharing resource server.
type station struct {
	name     string
	capacity float64   // work units per second when any job present
	jobs     []*jobRef // min-heap keyed by (threshold, seq)

	// V is the attained-service accumulator: the total service any job
	// resident since station creation would have received. Thresholds are
	// expressed on this axis, so capacity changes only alter dV/dt going
	// forward — setCapacity rebases by draining at the old rate first.
	V   float64
	seq uint64 // next admission sequence number

	sim        *desim.Simulator
	lastUpdate desim.Time
	busy       desim.TimeAverage // 0/1 busy indicator over [warmup, now]
	occ        desim.TimeAverage // resident-job count over [warmup, now]
	advances   uint64            // virtual-time advance count (observability)
	workDone   float64
	warmWork   float64 // workDone at the warmup boundary

	pending    desim.Handle // the station's next-completion event
	completeFn func()       // cached method value; avoids an alloc per reschedule
	doneBuf    []*jobRef    // scratch for complete; reused across events
	onDone     func(*request, *station)
	newJob     func() *jobRef // optional arena allocator; nil = plain alloc

	// recycleJobs opts into the station-local jobRef freelist: completed
	// jobs are zeroed and reused by later admissions. Safe only when no
	// caller retains a jobRef past completion (the runner's contract —
	// request refs are never read again without an arena); direct users
	// that probe heapIdx on stale refs must leave it off.
	recycleJobs bool
	freeJobs    []*jobRef
}

func newStation(sim *desim.Simulator, name string, capacity float64, onDone func(*request, *station)) *station {
	st := &station{
		name:     name,
		capacity: capacity,
		sim:      sim,
		onDone:   onDone,
	}
	st.completeFn = st.complete
	st.busy.Set(sim.Now(), 0)
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

// snapshotWarmup records the work delivered so far and restarts the busy
// observation window, marking the start of the measurement interval.
// advance is idempotent at a fixed timestamp (work deposited at the
// boundary drains only after it), so the snapshot does not depend on event
// ordering within the boundary instant.
func (st *station) snapshotWarmup() {
	st.advance()
	st.warmWork = st.workDone
	st.busy.Reset(st.sim.Now())
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

// add deposits work for req and returns the job reference.
func (st *station) add(req *request, work float64) *jobRef {
	st.advance()
	var j *jobRef
	switch {
	case st.newJob != nil:
		j = st.newJob()
	case st.recycleJobs && len(st.freeJobs) > 0:
		n := len(st.freeJobs) - 1
		j = st.freeJobs[n]
		st.freeJobs[n] = nil
		st.freeJobs = st.freeJobs[:n]
	default:
		j = &jobRef{}
	}
	j.req, j.threshold, j.seq = req, st.V+math.Max(work, 0), st.seq
	st.seq++
	st.pushJob(j)
	st.busy.Set(st.sim.Now(), 1)
	st.occ.Set(st.sim.Now(), float64(len(st.jobs)))
	st.reschedule()
	return j
}

// remove takes a job off the station (request abandoned or host failed).
func (st *station) remove(j *jobRef) {
	st.advance()
	if j.heapIdx >= 0 && j.heapIdx < len(st.jobs) && st.jobs[j.heapIdx] == j {
		st.deleteJob(j.heapIdx)
	}
	if len(st.jobs) == 0 {
		st.busy.Set(st.sim.Now(), 0)
	}
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
		top := st.jobs[0]
		if len(done) > 0 && top.threshold-st.V > eps {
			break
		}
		st.popJob()
		done = append(done, top)
	}
	if len(st.jobs) == 0 {
		st.busy.Set(st.sim.Now(), 0)
	}
	st.occ.Set(st.sim.Now(), float64(len(st.jobs)))
	st.reschedule()
	for _, j := range done {
		st.onDone(j.req, st)
	}
	// Drop request references before the buffer is parked for reuse;
	// opted-in stations recycle the completed jobRefs themselves.
	for i, j := range done {
		if st.recycleJobs {
			*j = jobRef{}
			j.heapIdx = -1
			st.freeJobs = append(st.freeJobs, j)
		}
		done[i] = nil
	}
	st.doneBuf = done[:0]
}

// remaining reports the work units left for job j.
func (st *station) remaining(j *jobRef) float64 {
	r := j.threshold - st.V
	if r < 0 {
		return 0
	}
	return r
}

// backlog reports the total outstanding work on the station, first
// draining up to now (the Rainbow allocators' rebalancing input).
func (st *station) backlog() float64 {
	st.advance()
	total := 0.0
	for _, j := range st.jobs {
		total += st.remaining(j)
	}
	return total
}

// utilization reports the station's busy fraction over the current
// observation window: [warmup, now] once snapshotWarmup has run, [0, now]
// otherwise.
func (st *station) utilization(now desim.Time) float64 {
	st.busy.Finish(now)
	u := st.busy.Average()
	if math.IsNaN(u) {
		return 0
	}
	return u
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
	jobs := append([]*jobRef(nil), st.jobs...)
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].seq < jobs[k].seq })
	reqs := make([]*request, len(jobs))
	for i, j := range jobs {
		reqs[i] = j.req
	}
	st.jobs = nil
	st.busy.Set(st.sim.Now(), 0)
	st.occ.Set(st.sim.Now(), 0)
	st.reschedule()
	return reqs
}

// Job-heap primitives: a binary min-heap over (threshold, seq) with
// position indexes maintained on every move so remove is O(log k).

func (st *station) jobLess(a, b *jobRef) bool {
	if a.threshold != b.threshold {
		return a.threshold < b.threshold
	}
	return a.seq < b.seq
}

func (st *station) pushJob(j *jobRef) {
	st.jobs = append(st.jobs, j)
	st.siftJobUp(len(st.jobs) - 1)
}

func (st *station) popJob() *jobRef {
	j := st.jobs[0]
	n := len(st.jobs) - 1
	st.jobs[0] = st.jobs[n]
	st.jobs[n] = nil
	st.jobs = st.jobs[:n]
	if n > 0 {
		st.siftJobDown(0)
	}
	j.heapIdx = -1
	return j
}

// deleteJob removes the job at heap position i.
func (st *station) deleteJob(i int) {
	j := st.jobs[i]
	n := len(st.jobs) - 1
	if i != n {
		st.jobs[i] = st.jobs[n]
		st.jobs[n] = nil
		st.jobs = st.jobs[:n]
		// The swapped-in element may need to move either way.
		st.siftJobDown(i)
		st.siftJobUp(i)
	} else {
		st.jobs[n] = nil
		st.jobs = st.jobs[:n]
	}
	j.heapIdx = -1
}

func (st *station) siftJobUp(i int) {
	jobs := st.jobs
	node := jobs[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !st.jobLess(node, jobs[parent]) {
			break
		}
		jobs[i] = jobs[parent]
		jobs[i].heapIdx = i
		i = parent
	}
	jobs[i] = node
	node.heapIdx = i
}

func (st *station) siftJobDown(i int) {
	jobs := st.jobs
	n := len(jobs)
	node := jobs[i]
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && st.jobLess(jobs[r], jobs[child]) {
			child = r
		}
		if !st.jobLess(jobs[child], node) {
			break
		}
		jobs[i] = jobs[child]
		jobs[i].heapIdx = i
		i = child
	}
	jobs[i] = node
	node.heapIdx = i
}
