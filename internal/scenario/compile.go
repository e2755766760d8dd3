package scenario

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/power"
	"repro/internal/rainbow"
	"repro/internal/replicate"
	"repro/internal/stats"
	"repro/internal/virt"
	"repro/internal/workload"
)

// Compiled is a scenario lowered to the executable layer: a cluster
// configuration, the replication-engine settings, and the power/platform
// parameters for energy reporting. Compile is the single funnel through
// which cmd/simulate, cmd/repro and the case-study experiments construct
// cluster.Config values.
type Compiled struct {
	// Cluster is the per-replication simulation configuration (replication
	// r clones it with seed Cluster.Seed+r).
	Cluster cluster.Config

	// Replication configures the independent-replications engine. Its
	// Seed always equals Cluster.Seed; Replications is >= 1.
	Replication replicate.Config

	// Timeout is the wall-clock budget for the whole study; zero means
	// none.
	Timeout time.Duration

	// Power and Platform parameterize the power meter the caller may run
	// over the results.
	Power    power.ServerModel
	Platform power.Platform
}

// profilePresets are the built-in service demand profiles.
var profilePresets = map[string]func() workload.ServiceProfile{
	"specweb-ecommerce": workload.SPECwebEcommerce,
	"specweb-cpubound":  workload.SPECwebCPUBound,
	"tpcw-ebook":        workload.TPCWEbook,
}

var profilePresetNames = []string{"specweb-ecommerce", "specweb-cpubound", "tpcw-ebook"}

// Compile validates the scenario, applies defaults, and lowers it to a
// Compiled value. Compiling the same scenario twice yields independent
// arrival-process state but otherwise identical configurations, so runs
// from a compiled scenario are reproducible seed for seed.
func (s Scenario) Compile() (Compiled, error) {
	if err := s.Validate(); err != nil {
		return Compiled{}, err
	}
	if s.Periods != nil {
		return Compiled{}, fmt.Errorf("%w: a periods scenario has no single cluster configuration; resolve it to per-bin sub-scenarios first (ResolvePeriods)", ErrInvalid)
	}
	s.ApplyDefaults()

	var out Compiled
	cc := &out.Cluster

	if s.Mode == "dedicated" {
		cc.Mode = cluster.Dedicated
	} else {
		cc.Mode = cluster.Consolidated
	}
	cc.Services = make([]cluster.ServiceSpec, len(s.Services))
	for i := range s.Services {
		spec, err := s.Services[i].compile()
		if err != nil {
			return Compiled{}, fmt.Errorf("service %d: %w", i, err)
		}
		cc.Services[i] = spec
	}
	cc.ConsolidatedServers = s.Fleet.Hosts
	if len(s.Fleet.Classes) > 0 {
		cc.HostClasses = make([]cluster.HostClass, len(s.Fleet.Classes))
		for i, hc := range s.Fleet.Classes {
			cc.HostClasses[i] = hc.compile()
		}
	}
	if s.Alloc != nil {
		cc.Alloc = s.Alloc.compile(len(s.Services))
	}
	cc.AdmissionPerHost = s.AdmissionPerHost
	cc.Horizon = s.Horizon
	cc.Warmup = *s.Warmup
	cc.Seed = s.Seed
	if s.Failures != nil {
		cc.MTBF = s.Failures.MTBF
		cc.MTTR = s.Failures.MTTR
	}
	cc.HostMemoryGB = s.Fleet.HostMemoryGB
	cc.Dom0MemoryGB = s.Fleet.Dom0MemoryGB

	r := s.Replication
	cc.Shards = r.Shards
	out.Replication = replicate.Config{
		Replications: r.Reps,
		Workers:      r.Workers,
		Seed:         s.Seed,
		Precision:    r.Precision,
		Confidence:   r.Confidence,
	}
	if r.TimeoutSec > 0 {
		out.Timeout = time.Duration(r.TimeoutSec * float64(time.Second))
	}

	out.Power = power.ServerModel{Base: s.Power.BaseW, Max: s.Power.MaxW}
	if s.Power.Platform == "linux" {
		out.Platform = power.NativeLinux
	} else {
		out.Platform = power.XenRainbow
	}

	if err := cc.Validate(); err != nil {
		return Compiled{}, fmt.Errorf("%w: compiled config: %v", ErrInvalid, err)
	}
	return out, nil
}

// CompileProfile lowers the service's demand profile to the workload
// layer, applying the Name override and DemandSCV exactly as the full
// Compile does. The analytic evaluation layer (internal/eval) uses it to
// read serving rates without building a whole cluster configuration.
func (s Service) CompileProfile() (workload.ServiceProfile, error) {
	profile, err := s.Profile.compile()
	if err != nil {
		return workload.ServiceProfile{}, err
	}
	if s.Name != "" {
		profile.Name = s.Name
	}
	return profile, nil
}

// CompileOverhead lowers the service's virtualization-overhead spec to the
// virt layer. A service without an overhead spec gets the zero
// virt.HostOverhead (every factor 1).
func (s Service) CompileOverhead() (virt.HostOverhead, error) {
	if s.Overhead == nil {
		return virt.HostOverhead{}, nil
	}
	return s.Overhead.compile()
}

func (s Service) compile() (cluster.ServiceSpec, error) {
	profile, err := s.Profile.compile()
	if err != nil {
		return cluster.ServiceSpec{}, err
	}
	if s.Name != "" {
		profile.Name = s.Name
	}
	spec := cluster.ServiceSpec{
		Profile:          profile,
		DedicatedServers: s.DedicatedServers,
		MemoryGB:         s.MemoryGB,
		Clients:          s.Clients,
	}
	if s.Overhead != nil {
		spec.Overhead, err = s.Overhead.compile()
		if err != nil {
			return cluster.ServiceSpec{}, err
		}
	}
	if s.Arrivals != nil {
		spec.Arrivals, err = s.Arrivals.Build()
		if err != nil {
			return cluster.ServiceSpec{}, err
		}
	}
	if s.ThinkTime != nil {
		spec.ThinkTime, err = s.ThinkTime.Build()
		if err != nil {
			return cluster.ServiceSpec{}, err
		}
	}
	return spec, nil
}

func (p Profile) compile() (workload.ServiceProfile, error) {
	var out workload.ServiceProfile
	if p.Preset != "" {
		out = profilePresets[p.Preset]()
	} else {
		out = workload.ServiceProfile{
			Name:       p.Name,
			Demands:    make(map[string]stats.Distribution, len(p.Demands)),
			OSCeiling:  p.OSCeiling,
			MetricName: p.Metric,
		}
		for r, d := range p.Demands {
			dist, err := d.Build()
			if err != nil {
				return workload.ServiceProfile{}, fmt.Errorf("demand %q: %w", r, err)
			}
			out.Demands[r] = dist
		}
	}
	if p.DemandSCV != nil {
		out = out.WithDemandSCV(*p.DemandSCV)
	}
	return out, nil
}

func (o Overhead) compile() (virt.HostOverhead, error) {
	var out virt.HostOverhead
	switch o.Preset {
	case "web":
		out = virt.WebHostOverhead()
	case "db":
		out = virt.DBHostOverhead()
	case "none":
		// No curves: every factor is 1.
	default:
		if len(o.Curves) > 0 {
			out.Curves = make(map[string]virt.ImpactCurve, len(o.Curves))
			for r, c := range o.Curves {
				out.Curves[r] = c.compile()
			}
		}
	}
	if o.Pinning == "xen-scheduled" {
		out.Pinning = virt.XenScheduledVCPUs
	}
	if len(o.CPUResources) > 0 {
		out.CPUResources = append([]string(nil), o.CPUResources...)
	}
	return out, nil
}

func (c Curve) compile() virt.ImpactCurve {
	switch c.Kind {
	case "linear":
		return virt.LinearCurve{Intercept: c.Intercept, Slope: c.Slope}
	case "rational":
		return virt.RationalCurve{C: c.C}
	default: // "constant" — validate admits nothing else
		return virt.ConstantCurve{Value: c.Value}
	}
}

func (h HostClass) compile() cluster.HostClass {
	out := cluster.HostClass{Name: h.Name, Count: h.Count}
	if h.Preset != "" {
		if out.Name == "" {
			out.Name = h.Preset
		}
		if cap := hostClassPresets[h.Preset]; cap != nil {
			out.Capability = make(map[string]float64, len(cap))
			for r, v := range cap {
				out.Capability[r] = v
			}
		}
		return out
	}
	if len(h.Capability) > 0 {
		out.Capability = make(map[string]float64, len(h.Capability))
		for r, v := range h.Capability {
			out.Capability[r] = v
		}
	}
	return out
}

func (a Alloc) compile(services int) cluster.Partition {
	switch a.Policy {
	case "static":
		return rainbow.Static{Weights: append([]float64(nil), a.Weights...)}
	case "proportional":
		return rainbow.Proportional{
			RebalancePeriod: a.Period,
			MinShare:        a.MinShare,
			Cost:            a.Cost,
		}
	default: // "priority" — validate admits nothing else
		prios := append([]int(nil), a.Priorities...)
		if len(prios) == 0 {
			prios = make([]int, services)
			for i := range prios {
				prios[i] = i
			}
		}
		return rainbow.Priority{
			Priorities:      prios,
			DemandCap:       a.DemandCap,
			RebalancePeriod: a.Period,
			Cost:            a.Cost,
		}
	}
}
