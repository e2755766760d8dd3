package cluster

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/desim"
	"repro/internal/pool"
	"repro/internal/stats"
	"repro/internal/virt"
	"repro/internal/workload"
)

// Mode selects the deployment style under test.
type Mode int

const (
	// Dedicated hosts one service per physical server pool on native Linux
	// (Fig. 1a / Fig. 3a).
	Dedicated Mode = iota
	// Consolidated hosts one VM per service on every shared physical
	// server, with resource flowing among VMs (Fig. 1b / Fig. 3b).
	Consolidated
)

func (m Mode) String() string {
	if m == Dedicated {
		return "dedicated"
	}
	return "consolidated"
}

// ServiceSpec describes one service to host.
type ServiceSpec struct {
	// Profile carries the service's native per-resource demands and OS
	// ceiling.
	Profile workload.ServiceProfile

	// Overhead carries the virtualization impact curves for this service
	// (consolidated mode only). The zero value means no overhead.
	Overhead virt.HostOverhead

	// Arrivals, when non-nil, drives the service open-loop (httperf
	// style). Mutually exclusive with Clients.
	Arrivals workload.ArrivalProcess

	// Clients, when positive, drives the service closed-loop with that
	// many emulated browsers (TPC-W style). Each browser thinks, issues
	// one request, waits for completion or loss, and thinks again.
	Clients int

	// ThinkTime is the closed-loop think-time distribution; nil means
	// exponential with mean 7 s (the TPC-W default).
	ThinkTime stats.Distribution

	// DedicatedServers is the service's pool size in Dedicated mode.
	DedicatedServers int

	// MemoryGB is the VM's memory allocation in Consolidated mode. Zero
	// means 1 GB — the paper's per-VM allocation ("each VM is allocated
	// 1GB memory").
	MemoryGB float64
}

// vmMemory reports the spec's effective VM memory.
func (s ServiceSpec) vmMemory() float64 {
	if s.MemoryGB == 0 {
		return 1
	}
	return s.MemoryGB
}

// Partition abstracts the Rainbow-style resource allocator used in
// Consolidated mode when resources are partitioned among VMs rather than
// ideally flowing. internal/rainbow provides implementations.
type Partition interface {
	// Shares maps per-VM backlogs (outstanding work) to per-VM capacity
	// shares summing to at most 1, written into dst's storage when its
	// capacity holds len(backlogs) (a new slice otherwise) and returned.
	// The rebalancing tick passes one buffer for the whole run.
	Shares(dst, backlogs []float64) []float64
	// Period is the rebalancing interval in seconds; 0 means shares are
	// computed once at start and never changed (static partitioning).
	Period() float64
	// Overhead is the fraction of host capacity lost to the reallocation
	// machinery while the policy is active, in [0, 1).
	Overhead() float64
	// String names the policy.
	String() string
}

// Config describes one cluster experiment.
type Config struct {
	// Mode selects dedicated or consolidated deployment.
	Mode Mode

	// Services are the services to host.
	Services []ServiceSpec

	// ConsolidatedServers is the shared pool size in Consolidated mode.
	// When HostClasses is set it may be left 0 (the class counts size the
	// pool) or must equal the summed class counts.
	ConsolidatedServers int

	// HostClasses, when non-empty, makes the Consolidated pool
	// heterogeneous: hosts are instantiated class by class, each with
	// per-resource capacity multipliers relative to the reference server
	// the service profiles were measured on — the paper's future-work
	// extension (Section V), mirrored analytically by scenario.HostClass
	// capability units (eval.ClassCapability).
	HostClasses []HostClass

	// Alloc selects the resource allocator in Consolidated mode; nil means
	// ideal on-demand flowing (one shared station per host resource — the
	// model's assumption 4).
	Alloc Partition

	// AdmissionPerHost caps concurrent in-flight requests per host;
	// arrivals beyond the cap are lost (the dispatcher's overload drop).
	// Zero means 256.
	AdmissionPerHost int

	// Horizon and Warmup delimit the run; statistics cover
	// [Warmup, Horizon].
	Horizon float64
	Warmup  float64

	// Seed drives all randomness.
	Seed uint64

	// MTBF and MTTR, when positive, enable host failure injection with
	// exponential times-to-failure and times-to-repair. A failing host
	// loses its in-flight requests.
	MTBF float64
	MTTR float64

	// HostMemoryGB is each host's physical memory; zero means 8 GB (the
	// testbed's servers). In Consolidated mode the VMs' memory plus the
	// Domain-0 reservation must fit — the placement constraint Validate
	// enforces.
	HostMemoryGB float64

	// Dom0MemoryGB is the memory reserved for Domain 0 on consolidated
	// hosts; zero means 1 GB.
	Dom0MemoryGB float64

	// Tracer, when non-nil, receives every scheduler operation of the
	// run's discrete-event core (obs.TraceWriter writes them as JSONL).
	// Intended for single runs; replications sharing one tracer get
	// interleaved (but individually intact) lines.
	Tracer desim.Tracer

	// Arenas, when non-nil, supplies reusable allocation arenas: each run
	// borrows one (event storage, a request freelist and job-heap
	// storage) and returns it on completion, so sequential runs —
	// replications of one point, or consecutive sweep points — stop
	// re-growing simulator state. Without it each run allocates through
	// a private arena. Purely an allocation optimization; results are
	// identical with or without it.
	Arenas *ArenaPool

	// Shards requests intra-run parallelism. The run is first partitioned
	// into coupling components — groups of hosts that never exchange
	// requests or share mutable state. In Dedicated mode every service's
	// pool is its own component (the dispatcher only routes a service to
	// its own hosts); in Consolidated mode every host serves every
	// service, so the whole fleet is one component. Components are packed
	// onto min(Shards, components) shards by a deterministic greedy
	// bin-packing, and each shard runs the full horizon on its own
	// simulator, arena and clock. 0 or 1 means sequential (the pre-shard
	// engine, event for event). Because shards share nothing during the
	// run and all RNG substreams are derived purely from (seed, label),
	// results are independent of the shard count and of goroutine
	// scheduling. A non-nil Tracer forces a single shard (trace writers
	// are not goroutine-safe and interleaved shard clocks would garble
	// the event log).
	Shards int

	// Pool, when non-nil, bounds the extra goroutines a sharded run may
	// claim. The caller is assumed to hold one slot for the run itself
	// (the replication engine's worker); up to Shards-1 extra slots are
	// claimed non-blockingly, so shards × replication workers never
	// oversubscribe the machine, and shards that find the pool busy
	// simply run on the caller's goroutine.
	Pool *pool.Pool
}

// HostClass describes one hardware class of a heterogeneous consolidated
// pool.
type HostClass struct {
	// Name identifies the class in reports.
	Name string

	// Count is how many hosts of this class to instantiate.
	Count int

	// Capability maps each resource to the class's speed relative to the
	// reference server (station capacity multiplier); missing resources
	// default to 1.
	Capability map[string]float64
}

// Validate checks the class.
func (h HostClass) Validate() error {
	if h.Name == "" {
		return fmt.Errorf("%w: host class has no name", ErrInvalidConfig)
	}
	if h.Count <= 0 {
		return fmt.Errorf("%w: host class %q count %d", ErrInvalidConfig, h.Name, h.Count)
	}
	for r, v := range h.Capability {
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: host class %q capability[%s] = %g", ErrInvalidConfig, h.Name, r, v)
		}
	}
	return nil
}

func (h HostClass) capabilityOn(r string) float64 {
	v, ok := h.Capability[r]
	if !ok {
		return 1
	}
	return v
}

// ErrInvalidConfig reports an unusable cluster configuration.
var ErrInvalidConfig = errors.New("cluster: invalid config")

// Validate checks the configuration.
func (c *Config) Validate() error {
	if len(c.Services) == 0 {
		return fmt.Errorf("%w: no services", ErrInvalidConfig)
	}
	for i, s := range c.Services {
		if err := s.Profile.Validate(); err != nil {
			return fmt.Errorf("%w: service %d: %v", ErrInvalidConfig, i, err)
		}
		if s.Arrivals == nil && s.Clients <= 0 {
			return fmt.Errorf("%w: service %q has neither arrivals nor clients", ErrInvalidConfig, s.Profile.Name)
		}
		if s.Arrivals != nil && s.Clients > 0 {
			return fmt.Errorf("%w: service %q is both open- and closed-loop", ErrInvalidConfig, s.Profile.Name)
		}
		if c.Mode == Dedicated && s.DedicatedServers <= 0 {
			return fmt.Errorf("%w: service %q needs a dedicated pool size", ErrInvalidConfig, s.Profile.Name)
		}
	}
	if c.Mode == Consolidated {
		classTotal := 0
		for _, hc := range c.HostClasses {
			if err := hc.Validate(); err != nil {
				return err
			}
			classTotal += hc.Count
		}
		switch {
		case len(c.HostClasses) > 0 && c.ConsolidatedServers != 0 && c.ConsolidatedServers != classTotal:
			return fmt.Errorf("%w: ConsolidatedServers %d != summed class counts %d",
				ErrInvalidConfig, c.ConsolidatedServers, classTotal)
		case len(c.HostClasses) == 0 && c.ConsolidatedServers <= 0:
			return fmt.Errorf("%w: consolidated pool size %d", ErrInvalidConfig, c.ConsolidatedServers)
		}
	}
	if c.AdmissionPerHost < 0 {
		return fmt.Errorf("%w: admission %d", ErrInvalidConfig, c.AdmissionPerHost)
	}
	if c.Horizon <= 0 || math.IsNaN(c.Horizon) || math.IsInf(c.Horizon, 0) {
		return fmt.Errorf("%w: horizon %g", ErrInvalidConfig, c.Horizon)
	}
	if c.Warmup < 0 || c.Warmup >= c.Horizon {
		return fmt.Errorf("%w: warmup %g (horizon %g)", ErrInvalidConfig, c.Warmup, c.Horizon)
	}
	if (c.MTBF != 0) != (c.MTTR != 0) {
		return fmt.Errorf("%w: MTBF and MTTR must be set together", ErrInvalidConfig)
	}
	if c.MTBF < 0 || c.MTTR < 0 {
		return fmt.Errorf("%w: negative failure parameters", ErrInvalidConfig)
	}
	if c.HostMemoryGB < 0 || c.Dom0MemoryGB < 0 ||
		math.IsNaN(c.HostMemoryGB) || math.IsNaN(c.Dom0MemoryGB) {
		return fmt.Errorf("%w: negative memory sizes", ErrInvalidConfig)
	}
	if c.Shards < 0 {
		return fmt.Errorf("%w: shards %d (negative; 0 means sequential)", ErrInvalidConfig, c.Shards)
	}
	if c.Mode == Consolidated {
		// Memory placement: every consolidated host carries one VM per
		// service plus Domain 0.
		need := c.dom0Memory()
		for _, s := range c.Services {
			if s.MemoryGB < 0 || math.IsNaN(s.MemoryGB) {
				return fmt.Errorf("%w: service %q memory %g", ErrInvalidConfig, s.Profile.Name, s.MemoryGB)
			}
			need += s.vmMemory()
		}
		if have := c.hostMemory(); need > have {
			return fmt.Errorf("%w: %d VMs + Domain 0 need %.1f GB but hosts have %.1f GB",
				ErrInvalidConfig, len(c.Services), need, have)
		}
	}
	return nil
}

func (c *Config) hostMemory() float64 {
	if c.HostMemoryGB == 0 {
		return 8 // the testbed's 8 GB servers
	}
	return c.HostMemoryGB
}

func (c *Config) dom0Memory() float64 {
	if c.Dom0MemoryGB == 0 {
		return 1
	}
	return c.Dom0MemoryGB
}

func (c *Config) admission() int {
	if c.AdmissionPerHost == 0 {
		return 256
	}
	return c.AdmissionPerHost
}

// nativeRate reports the effective native serving rate of service spec on
// resource r: the hardware serving rate capped by the OS ceiling on the
// bottleneck resource (a single OS image cannot exceed the ceiling no
// matter the spare hardware).
func nativeRate(p workload.ServiceProfile, r string) float64 {
	rate := p.ServingRate(r)
	if p.OSCeiling > 0 {
		if br, _ := p.BottleneckResource(); br == r && p.OSCeiling < rate {
			rate = p.OSCeiling
		}
	}
	return rate
}

// resourceSet returns the sorted union of resources demanded by the
// services.
func resourceSet(services []ServiceSpec) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range services {
		for r := range s.Profile.Demands {
			if !seen[r] {
				seen[r] = true
				out = append(out, r)
			}
		}
	}
	// Insertion sort (tiny slices, stdlib-only, deterministic order).
	for i := 1; i < len(out); i++ {
		for k := i; k > 0 && out[k] < out[k-1]; k-- {
			out[k], out[k-1] = out[k-1], out[k]
		}
	}
	return out
}

// activeVMs reports how many of the host's services place demand on r —
// the v fed to the impact curves (DESIGN.md: impact factors are evaluated
// at the per-resource active VM count).
func activeVMs(services []ServiceSpec, indexes []int, r string) int {
	n := 0
	for _, idx := range indexes {
		if !math.IsInf(services[idx].Profile.ServingRate(r), 1) {
			n++
		}
	}
	if n == 0 {
		n = 1
	}
	return n
}
