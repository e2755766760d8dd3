package cluster

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Intra-run sharding.
//
// A conservative time-window protocol (barrier every W of simulated time,
// W = the minimum cross-shard latency) was the first design here, with
// per-shard single-writer mailboxes carrying dispatch→admit messages. It
// degenerates for this model: the only cross-shard edge, dispatch→admit,
// is instantaneous (the LVS dispatcher forwards in zero simulated time),
// and admission feedback (host.inflight against AdmissionPerHost) reads
// the destination host's state at the dispatch instant — so the lookahead
// W is 0 and every window collapses to lock-step. Instead the run is cut
// where W is infinite: along coupling components, host groups with no
// cross edges at all. In Dedicated mode the dispatcher routes each
// service only to its own pool and every RNG substream is derived purely
// from (seed, label), so each service — hosts, drivers, failure
// processes, percentile trackers — is a closed subsystem; in Consolidated
// mode every host serves every service and the fleet is one component.
// Components never exchange events, so no mailboxes, barriers or W are
// needed: each shard runs the full horizon independently and results are
// exact by construction, not merely within a synchronization tolerance.

// planShards decides the shard count and assigns every coupling component
// (service, in Dedicated mode) to a shard. The assignment is a
// deterministic greedy bin-packing — components sorted by descending
// weight (host count plus closed-loop population, a proxy for event
// volume), heaviest first onto the least-loaded shard, all ties broken by
// lowest index — so a fixed (config, shard count) always yields the same
// layout regardless of worker scheduling.
func (r *runner) planShards() {
	components := 1
	if r.cfg.Mode == Dedicated {
		components = len(r.cfg.Services)
	}
	n := r.cfg.Shards
	if n < 1 {
		n = 1
	}
	if n > components {
		n = components
	}
	if r.cfg.Tracer != nil {
		n = 1
	}
	r.nshards = n
	if n == 1 {
		// nil svcShard = every service on shard 0 (see runner.shardOf);
		// the sequential path allocates nothing for the plan.
		return
	}
	r.svcShard = make([]int, len(r.cfg.Services))
	order := make([]int, len(r.cfg.Services))
	for i := range order {
		order[i] = i
	}
	weight := func(svc int) float64 {
		s := &r.cfg.Services[svc]
		return float64(s.DedicatedServers + s.Clients)
	}
	sort.SliceStable(order, func(a, b int) bool {
		wa, wb := weight(order[a]), weight(order[b])
		if wa != wb {
			return wa > wb
		}
		return order[a] < order[b]
	})
	load := make([]float64, n)
	for _, svc := range order {
		best := 0
		for s := 1; s < n; s++ {
			if load[s] < load[best] {
				best = s
			}
		}
		r.svcShard[svc] = best
		w := weight(svc)
		if w < 1 {
			w = 1
		}
		load[best] += w
	}
}

// shardOf maps a service to the shard owning its coupling component (a
// nil plan means a sequential run: everything on shard 0).
func (r *runner) shardOf(svc int) int {
	if r.svcShard == nil {
		return 0
	}
	return r.svcShard[svc]
}

// runShards executes every shard to the horizon. Sequential runs stay on
// the caller's goroutine (identical to the pre-shard engine); parallel
// runs claim up to nshards-1 extra pool slots non-blockingly — the caller
// already holds one slot for the run itself, and a busy pool just means
// more shards run on fewer goroutines. Shards are handed out through an
// atomic counter so an early-finishing worker picks up remaining shards.
func (r *runner) runShards() {
	start := time.Now()
	defer func() { r.elapsed = time.Since(start).Seconds() }()
	if r.nshards == 1 {
		r.sims[0].Run(r.cfg.Horizon)
		return
	}
	extra := 0
	for extra < r.nshards-1 && r.cfg.Pool.TryAcquire() {
		extra++
	}
	var next atomic.Int64
	work := func() {
		for {
			s := int(next.Add(1)) - 1
			if s >= r.nshards {
				return
			}
			r.sims[s].Run(r.cfg.Horizon)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < extra; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for i := 0; i < extra; i++ {
		r.cfg.Pool.Release()
	}
}
