package cluster

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/desim"
	"repro/internal/obs"
	"repro/internal/stats"
)

// request is one in-flight service request.
type request struct {
	service int
	host    *host
	arrived desim.Time
	left    int  // stations still draining
	counted bool // arrived after warmup
	client  int  // closed-loop client index, -1 for open loop
}

// leg is one resource of a service's compiled admission route on one
// host: every factor that turns a demand sample into station work, fixed
// once the run's placement is built.
type leg struct {
	st      *station
	dist    stats.Distribution
	hwRate  float64 // hardware serving rate μ on the resource (finite)
	natRate float64 // μ capped by the OS ceiling on the bottleneck resource
	factor  float64 // impact factor at the host's active-VM count; 0 when none applies
}

// target is one entry of a service's dispatch pool: a host and the
// service's admission route on it, one leg per resource with a finite
// serving rate, in sorted resource order.
type target struct {
	host  *host
	route []leg
}

// host is one physical server.
type host struct {
	id       int
	shard    int   // which shard simulator owns this host's events
	services []int // indexes into cfg.Services hosted here
	// resources lists every resource the hosted services demand, sorted.
	resources []string
	// stations[r] in flowing mode; vmStations[vmPos][r] in partitioned
	// mode (vmPos indexes host.services).
	stations   map[string]*station
	vmStations []map[string]*station
	// ordered lists every station of the host in deterministic build
	// order (sorted resource order, VMs in position order), so run-time
	// visitors iterate without sorting map keys per call.
	ordered  []*station
	inflight int
	up       bool
	// capability reports the host's per-resource speed relative to the
	// reference server; utilization fractions are normalized by it.
	capability func(resource string) float64
}

// everyStation visits all stations of the host in sorted resource order,
// keeping callers deterministic.
func (h *host) everyStation(fn func(*station)) {
	for _, st := range h.ordered {
		fn(st)
	}
}

// runner holds the live simulation state.
type runner struct {
	cfg *Config

	// One arena, and its simulator, per shard. Shard 0 is the whole run
	// when sequential; otherwise every coupling component lives entirely
	// on one shard and shards share no mutable state while running (see
	// shard.go). svcShard maps each service to its shard; nil means
	// everything on shard 0. The *One arrays back the slices in the
	// common sequential case so it allocates nothing per run.
	nshards  int
	sims     []*desim.Simulator
	arenas   []*Arena
	svcShard []int
	// shardFailures is the per-shard single-writer failure count, summed
	// into Result.Failures at finish.
	shardFailures []int64
	simsOne       [1]*desim.Simulator
	arenasOne     [1]*Arena
	failuresOne   [1]int64
	// elapsed is the wall-clock time of the event loops, feeding the
	// events-per-second gauge on sharded runs.
	elapsed float64

	root      *stats.Stream
	hosts     []*host
	byService [][]target // dispatch pools per service
	rrNext    []int      // round-robin cursors per service
	demands   []*stats.Stream
	thinks    []*stats.Stream
	p95, p99  []*stats.P2Quantile // per-service response-time percentiles
	res       *Result

	// Observability: every run owns a registry (isolated per replication,
	// so parallel replications never contend) snapshotted into Result.Obs.
	reg           *obs.Registry
	obsAdmissions *obs.Counter
	obsLosses     *obs.Counter
	obsFailures   *obs.Counter
}

// Run builds and executes the experiment, returning aggregated metrics.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := &runner{
		cfg:  &cfg,
		root: stats.NewStream(cfg.Seed, fmt.Sprintf("cluster/%s", cfg.Mode)),
		reg:  obs.NewRegistry(),
	}
	r.planShards()
	if r.nshards == 1 {
		r.sims = r.simsOne[:]
		r.arenas = r.arenasOne[:]
		r.shardFailures = r.failuresOne[:]
	} else {
		r.sims = make([]*desim.Simulator, r.nshards)
		r.arenas = make([]*Arena, r.nshards)
		r.shardFailures = make([]int64, r.nshards)
	}
	for s := range r.arenas {
		var a *Arena
		if cfg.Arenas != nil {
			a = cfg.Arenas.Get()
			defer cfg.Arenas.Put(a)
		} else {
			a = NewArena()
		}
		r.arenas[s] = a
		r.sims[s] = a.sim
	}
	if cfg.Tracer != nil {
		r.sims[0].SetTracer(cfg.Tracer) // planShards forced nshards = 1
	}
	r.res = newResult(&cfg)
	r.build()
	r.registerObs()
	if cfg.Warmup > 0 {
		// Snapshot delivered work at the warmup boundary so finish() can
		// scope utilization to the same post-warmup window as loss and
		// throughput. Each shard snapshots its own hosts on its own clock.
		for s := 0; s < r.nshards; s++ {
			s := s
			r.sims[s].At(cfg.Warmup, func() {
				for _, h := range r.hosts {
					if h.shard == s {
						h.everyStation(func(st *station) { st.snapshotWarmup() })
					}
				}
			})
		}
	}
	r.startDrivers()
	if cfg.MTBF > 0 {
		r.startFailures()
	}
	r.runShards()
	r.finish()
	for _, h := range r.hosts {
		h.everyStation(r.arenas[h.shard].reclaim)
	}
	return r.res, nil
}

// build creates hosts and stations.
func (r *runner) build() {
	cfg := r.cfg
	r.byService = make([][]target, len(cfg.Services))
	r.rrNext = make([]int, len(cfg.Services))
	r.demands = make([]*stats.Stream, len(cfg.Services))
	r.thinks = make([]*stats.Stream, len(cfg.Services))
	r.p95 = make([]*stats.P2Quantile, len(cfg.Services))
	r.p99 = make([]*stats.P2Quantile, len(cfg.Services))
	for i := range cfg.Services {
		r.p95[i] = stats.NewP2Quantile(0.95)
		r.p99[i] = stats.NewP2Quantile(0.99)
		r.demands[i] = r.root.Substream(fmt.Sprintf("demand/%d", i))
		r.thinks[i] = r.root.Substream(fmt.Sprintf("think/%d", i))
	}

	mkStation := func(shard int, name string, capacity float64) *station {
		st := newStation(r.sims[shard], name, capacity, r.onStationDone)
		st.jobs = r.arenas[shard].jobStorage()
		return st
	}
	newHost := func(id, shard int, services []int, capability func(string) float64) *host {
		resources := resourceSet(pick(cfg.Services, services))
		h := &host{id: id, shard: shard, services: services, resources: resources, up: true, capability: capability}
		if cfg.Mode == Consolidated && cfg.Alloc != nil {
			// Partitioned: one station per VM per resource.
			shares := cfg.Alloc.Shares(nil, make([]float64, len(services)))
			h.vmStations = make([]map[string]*station, len(services))
			for pos := range services {
				h.vmStations[pos] = map[string]*station{}
				for _, res := range resources {
					cap := shares[pos] * (1 - cfg.Alloc.Overhead()) * capability(res)
					name := fmt.Sprintf("h%d/vm%d/%s", id, pos, res)
					st := mkStation(shard, name, cap)
					h.vmStations[pos][res] = st
					h.ordered = append(h.ordered, st)
				}
			}
		} else {
			// Flowing (or dedicated): one shared station per resource.
			h.stations = map[string]*station{}
			for _, res := range resources {
				name := fmt.Sprintf("h%d/%s", id, res)
				st := mkStation(shard, name, capability(res))
				h.stations[res] = st
				h.ordered = append(h.ordered, st)
			}
		}
		return h
	}
	referenceHost := func(string) float64 { return 1 }

	switch cfg.Mode {
	case Dedicated:
		id := 0
		for svc := range cfg.Services {
			for k := 0; k < cfg.Services[svc].DedicatedServers; k++ {
				h := newHost(id, r.shardOf(svc), []int{svc}, referenceHost)
				id++
				r.hosts = append(r.hosts, h)
				r.byService[svc] = append(r.byService[svc], target{host: h})
			}
		}
	case Consolidated:
		all := make([]int, len(cfg.Services))
		for i := range all {
			all[i] = i
		}
		addHost := func(id int, capability func(string) float64) {
			h := newHost(id, 0, all, capability)
			r.hosts = append(r.hosts, h)
			for svc := range cfg.Services {
				r.byService[svc] = append(r.byService[svc], target{host: h})
			}
		}
		if len(cfg.HostClasses) > 0 {
			id := 0
			for _, hc := range cfg.HostClasses {
				hc := hc
				for k := 0; k < hc.Count; k++ {
					addHost(id, hc.capabilityOn)
					id++
				}
			}
		} else {
			for k := 0; k < cfg.ConsolidatedServers; k++ {
				addHost(k, referenceHost)
			}
		}
	}

	r.compileRoutes()

	// Periodic Rainbow rebalancing. Consolidated mode is a single
	// coupling component, so the tick always lives on shard 0. Stations
	// are visited in the host's sorted resource order: the backlog sum and
	// the rescheduling order must not follow map order. One backlog buffer
	// and one share buffer serve every host on every tick.
	if cfg.Mode == Consolidated && cfg.Alloc != nil && cfg.Alloc.Period() > 0 {
		sim := r.sims[0]
		var backlogs, shares []float64
		var tick func()
		tick = func() {
			for _, h := range r.hosts {
				if !h.up || h.vmStations == nil {
					continue
				}
				backlogs = append(backlogs[:0], make([]float64, len(h.vmStations))...)
				for pos, vm := range h.vmStations {
					for _, res := range h.resources {
						backlogs[pos] += vm[res].backlog()
					}
				}
				shares = cfg.Alloc.Shares(shares, backlogs)
				for pos, vm := range h.vmStations {
					for _, res := range h.resources {
						vm[res].setCapacity(shares[pos] * (1 - cfg.Alloc.Overhead()) * h.capability(res))
					}
				}
			}
			if sim.Now()+cfg.Alloc.Period() <= cfg.Horizon {
				sim.After(cfg.Alloc.Period(), tick)
			}
		}
		sim.After(cfg.Alloc.Period(), tick)
	}
}

// compileRoutes fills in every dispatch target's admission route. Every
// factor admit applies is a constant once the placement is fixed, so it
// is computed here once per run instead of per request. The legs of all
// routes share one allocation, borrowed from shard 0's arena.
func (r *runner) compileRoutes() {
	cfg := r.cfg
	n := 0
	for svc, pool := range r.byService {
		n += len(pool) * len(cfg.Services[svc].Profile.Demands)
	}
	legs := r.arenas[0].routeStorage(n)
	for svc, pool := range r.byService {
		spec := &cfg.Services[svc]
		// Map iteration order is randomized; sample demands in a fixed,
		// sorted resource order so runs are seed-deterministic.
		resources := resourceSet(cfg.Services[svc : svc+1])
		for k := range pool {
			h := pool[k].host
			stations := h.stations
			if h.vmStations != nil {
				stations = h.vmStations[slices.Index(h.services, svc)]
			}
			start := len(legs)
			for _, res := range resources {
				hwRate := spec.Profile.ServingRate(res)
				if math.IsInf(hwRate, 1) {
					continue // no demand on this resource: nothing to draw
				}
				l := leg{st: stations[res], dist: spec.Profile.Demands[res], hwRate: hwRate, natRate: nativeRate(spec.Profile, res)}
				if cfg.Mode == Consolidated {
					v := activeVMs(cfg.Services, h.services, res)
					if factor, err := spec.Overhead.RawFactor(res, v); err == nil && factor > 0 {
						l.factor = factor
					}
				}
				legs = append(legs, l)
			}
			pool[k].route = legs[start:len(legs):len(legs)]
		}
	}
}

// registerObs publishes the run's engine counters: the discrete-event
// core's schedule/fire/cancel counts, dispatcher admissions
// and losses (atomic counters — per-request, off the per-event hot
// path), virtual-time advances summed over stations (each station keeps
// a plain field; the registry reads them only at snapshot), and one
// mean-occupancy gauge per station. Must run after build().
//
// Sequential runs keep the exact pre-shard metric set under "desim" so
// default manifests stay byte-identical. Sharded runs publish each
// shard's engine under "desim/shard<i>" plus merged "desim" totals
// (sums; high-water and slots report the max and sum across shards), a
// shard-count gauge, and the merged events-per-second throughput of the
// parallel event loops.
func (r *runner) registerObs() {
	if r.nshards == 1 {
		obs.RegisterSimulator(r.reg, "desim", r.sims[0])
	} else {
		for s, sim := range r.sims {
			obs.RegisterSimulator(r.reg, fmt.Sprintf("desim/shard%d", s), sim)
		}
		sum := func(field func(desim.Stats) uint64) func() uint64 {
			return func() uint64 {
				var total uint64
				for _, sim := range r.sims {
					total += field(sim.Stats())
				}
				return total
			}
		}
		r.reg.CounterFunc("desim/events_scheduled", sum(func(s desim.Stats) uint64 { return s.Scheduled }))
		r.reg.CounterFunc("desim/events_fired", sum(func(s desim.Stats) uint64 { return s.Fired }))
		r.reg.CounterFunc("desim/events_cancelled", sum(func(s desim.Stats) uint64 { return s.Cancelled }))
		r.reg.GaugeFunc("desim/queue_high_water", func() float64 {
			m := 0
			for _, sim := range r.sims {
				if q := sim.Stats().MaxQueue; q > m {
					m = q
				}
			}
			return float64(m)
		})
		r.reg.GaugeFunc("desim/arena_slots", func() float64 {
			total := 0
			for _, sim := range r.sims {
				total += sim.Stats().ArenaSlots
			}
			return float64(total)
		})
		r.reg.GaugeFunc("cluster/shards", func() float64 { return float64(r.nshards) })
		r.reg.GaugeFunc("cluster/events_per_sec", func() float64 {
			if r.elapsed <= 0 {
				return 0
			}
			var fired uint64
			for _, sim := range r.sims {
				fired += sim.Stats().Fired
			}
			return float64(fired) / r.elapsed
		})
	}
	r.obsAdmissions = r.reg.Counter("cluster/admissions")
	r.obsLosses = r.reg.Counter("cluster/losses")
	r.obsFailures = r.reg.Counter("cluster/host_failures")
	r.reg.CounterFunc("cluster/vt_advances", func() uint64 {
		var total uint64
		for _, h := range r.hosts {
			h.everyStation(func(st *station) { total += st.advances })
		}
		return total
	})
	for _, h := range r.hosts {
		h.everyStation(func(st *station) {
			r.reg.GaugeFunc("cluster/station/"+st.name+"/mean_occupancy", func() float64 {
				return st.meanOccupancy(st.sim.Now())
			})
		})
	}
}

func pick(specs []ServiceSpec, idx []int) []ServiceSpec {
	out := make([]ServiceSpec, 0, len(idx))
	for _, i := range idx {
		out = append(out, specs[i])
	}
	return out
}

// startDrivers launches open-loop arrival streams and closed-loop clients.
func (r *runner) startDrivers() {
	for svc := range r.cfg.Services {
		spec := &r.cfg.Services[svc]
		sim := r.sims[r.shardOf(svc)]
		if spec.Arrivals != nil {
			svc := svc
			arr := r.root.Substream(fmt.Sprintf("arrivals/%d", svc))
			var loop func()
			loop = func() {
				r.dispatch(svc, -1)
				gap := spec.Arrivals.Next(arr)
				if sim.Now()+gap <= r.cfg.Horizon {
					sim.After(gap, loop)
				}
			}
			first := spec.Arrivals.Next(arr)
			if first <= r.cfg.Horizon {
				sim.At(first, loop)
			}
			continue
		}
		// Closed loop: stagger client starts uniformly over one think time.
		for c := 0; c < spec.Clients; c++ {
			svc, c := svc, c
			start := r.thinkTime(svc) * r.thinks[svc].Float64()
			if start > r.cfg.Horizon {
				continue
			}
			sim.At(start, func() { r.dispatch(svc, c) })
		}
	}
}

// thinkTime samples a think time for service svc.
func (r *runner) thinkTime(svc int) float64 {
	spec := &r.cfg.Services[svc]
	if spec.ThinkTime != nil {
		return spec.ThinkTime.Sample(r.thinks[svc])
	}
	return r.thinks[svc].ExpFloat64() * 7 // TPC-W default mean think time
}

// clientThink schedules the next request of a closed-loop client.
func (r *runner) clientThink(svc, client int) {
	d := r.thinkTime(svc)
	sim := r.sims[r.shardOf(svc)]
	if sim.Now()+d <= r.cfg.Horizon {
		sim.After(d, func() { r.dispatch(svc, client) })
	}
}

// dispatch routes one request of service svc (client >= 0 for closed loop)
// through the LVS round-robin dispatcher.
func (r *runner) dispatch(svc, client int) {
	shard := r.shardOf(svc)
	now := r.sims[shard].Now()
	counted := now >= r.cfg.Warmup
	sm := &r.res.Services[svc]
	if counted {
		sm.Arrivals++
	}
	h, route := r.pickHost(svc)
	if h == nil || h.inflight >= r.cfg.admission() {
		r.obsLosses.Inc()
		if counted {
			sm.Lost++
		}
		if client >= 0 {
			r.clientThink(svc, client)
		}
		return
	}
	req := r.arenas[shard].getRequest()
	req.service, req.host, req.arrived = svc, h, now
	req.counted, req.client = counted, client
	r.admit(req, route)
}

// pickHost returns the next live host in round-robin order, with the
// service's admission route on it. Down hosts are probed but do not burn
// cursor positions: the cursor lands just past the host actually chosen,
// so a failed host never shifts the rotation among the survivors.
func (r *runner) pickHost(svc int) (*host, []leg) {
	pool := r.byService[svc]
	n := len(pool)
	if n == 0 {
		return nil, nil
	}
	start := r.rrNext[svc] % n
	for k := 0; k < n; k++ {
		idx := (start + k) % n
		if t := pool[idx]; t.host.up {
			r.rrNext[svc] = idx + 1
			return t.host, t.route
		}
	}
	return nil, nil
}

// admit deposits the request's work on its host's stations along the
// service's compiled route.
func (r *runner) admit(req *request, route []leg) {
	req.host.inflight++
	r.obsAdmissions.Inc()
	demand := r.demands[req.service]
	for i := range route {
		l := &route[i]
		// Sample a hardware-speed demand and rescale to native speed.
		work := l.dist.Sample(demand) * l.hwRate / l.natRate
		if l.factor > 0 {
			work /= l.factor
		}
		l.st.add(req, work)
		req.left++
	}
	if req.left == 0 {
		// Degenerate profile with no finite demands: complete immediately.
		r.completeRequest(req)
	}
}

// onStationDone fires when one station finishes a request's work there.
func (r *runner) onStationDone(req *request, _ *station) {
	req.left--
	if req.left == 0 {
		r.completeRequest(req)
	}
}

func (r *runner) completeRequest(req *request) {
	req.host.inflight--
	sm := &r.res.Services[req.service]
	// counted implies the arrival was post-warmup, and time only moves
	// forward, so no boundary re-check is needed here.
	if req.counted {
		sm.Served++
		rt := r.sims[req.host.shard].Now() - req.arrived
		sm.ResponseTimes.Add(rt)
		r.p95[req.service].Add(rt)
		r.p99[req.service].Add(rt)
	}
	if req.client >= 0 {
		r.clientThink(req.service, req.client)
	}
	// A completed request has drained every station (left == 0), so no
	// station holds it any more.
	r.arenas[req.host.shard].putRequest(req)
}

// startFailures arms the host failure/repair processes. Each host's
// process lives on its own shard's simulator; the failure count is
// written per shard (single writer) and summed at finish.
func (r *runner) startFailures() {
	for _, h := range r.hosts {
		h := h
		sim := r.sims[h.shard]
		fs := r.root.Substream(fmt.Sprintf("failures/%d", h.id))
		var fail, repair func()
		fail = func() {
			h.up = false
			r.shardFailures[h.shard]++
			r.obsFailures.Inc()
			// Lose all in-flight requests on this host, in a deterministic
			// order (map iteration would perturb the think-time stream).
			seen := map[*request]bool{}
			var victims []*request
			h.everyStation(func(st *station) {
				for _, req := range st.clear() {
					if !seen[req] {
						seen[req] = true
						victims = append(victims, req)
					}
				}
			})
			// A request's work sits on its host's stations only, so
			// clearing them leaves the victims held by no station.
			for _, req := range victims {
				h.inflight--
				r.obsLosses.Inc()
				if req.counted {
					r.res.Services[req.service].Lost++
				}
				if req.client >= 0 {
					r.clientThink(req.service, req.client)
				}
				r.arenas[h.shard].putRequest(req)
			}
			d := fs.ExpFloat64() * r.cfg.MTTR
			if sim.Now()+d <= r.cfg.Horizon {
				sim.After(d, repair)
			}
		}
		repair = func() {
			h.up = true
			d := fs.ExpFloat64() * r.cfg.MTBF
			if sim.Now()+d <= r.cfg.Horizon {
				sim.After(d, fail)
			}
		}
		d := fs.ExpFloat64() * r.cfg.MTBF
		if d <= r.cfg.Horizon {
			sim.After(d, fail)
		}
	}
}

// finish closes statistics at the horizon.
func (r *runner) finish() {
	for _, n := range r.shardFailures {
		r.res.Failures += n
	}
	window := r.cfg.Horizon - r.cfg.Warmup
	for i := range r.res.Services {
		sm := &r.res.Services[i]
		if sm.Arrivals > 0 {
			sm.LossProb = float64(sm.Lost) / float64(sm.Arrivals)
		}
		if window > 0 {
			sm.Throughput = float64(sm.Served) / window
		}
		if v := r.p95[i].Value(); !math.IsNaN(v) {
			sm.RespP95 = v
		}
		if v := r.p99[i].Value(); !math.IsNaN(v) {
			sm.RespP99 = v
		}
	}
	for _, h := range r.hosts {
		hm := HostMetrics{ID: h.id, Utilization: map[string]float64{}}
		collect := func(st *station, res string) {
			st.advance()
			// Work delivered inside the observation window, normalized by
			// the host's full capacity on the resource over that window: a
			// fraction of the machine kept busy — the same interval loss
			// and throughput are scoped to.
			u := st.windowWork() / (window * h.capability(res))
			hm.Utilization[res] += u
		}
		for res, st := range h.stations {
			collect(st, res)
		}
		for _, vm := range h.vmStations {
			for res, st := range vm {
				collect(st, res)
			}
		}
		for res, u := range hm.Utilization {
			if u > 1 {
				hm.Utilization[res] = 1
			}
			if hm.Utilization[res] > hm.Bottleneck {
				hm.Bottleneck = hm.Utilization[res]
			}
		}
		r.res.Hosts = append(r.res.Hosts, hm)
	}
	r.res.Window = window
	r.res.Obs = r.reg.Snapshot()
}
