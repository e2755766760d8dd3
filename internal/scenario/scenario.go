// Package scenario is the declarative layer between a JSON description of
// a consolidation experiment and an executable cluster configuration. One
// Scenario value covers everything cluster.Config and the replication
// engine can express — services with arbitrary arrival processes or
// closed-loop clients, virtualization overhead curves, fleet shape
// (homogeneous pools or heterogeneous host classes), Rainbow allocator
// policies, failure injection, power parameters and replication settings —
// so any consolidation question a reader of the paper can pose becomes a
// JSON file instead of a fork.
//
// The pipeline is Parse (strict JSON decode) → ApplyDefaults → Validate →
// Compile, which lowers the scenario to cluster.Config plus
// replicate.Config. cmd/simulate, cmd/repro and every case-study
// experiment construct their cluster configurations exclusively through
// this package; the canonical paper setups are registered as named presets
// (see presets.go).
package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/jsonenc"
	"repro/internal/stats"
	"repro/internal/workload"
)

// ErrInvalid reports an unusable scenario.
var ErrInvalid = errors.New("scenario: invalid")

// Scenario is the JSON-serializable description of one cluster experiment
// plus its replication study. The zero value of every optional field means
// "use the documented default"; ApplyDefaults materializes the defaults so
// a resolved scenario round-trips losslessly through JSON.
type Scenario struct {
	// Name labels the scenario in reports and manifests.
	Name string `json:"name,omitempty"`

	// Notes is free-form documentation carried along with the file.
	Notes string `json:"notes,omitempty"`

	// Mode is "dedicated" or "consolidated" (default).
	Mode string `json:"mode,omitempty"`

	// Services are the services to host (at least one).
	Services []Service `json:"services"`

	// Fleet shapes the consolidated pool; ignored fields must stay zero in
	// dedicated mode (pool sizes live on each service there).
	Fleet Fleet `json:"fleet"`

	// Alloc selects the consolidated resource allocator; nil means ideal
	// on-demand flowing (the model's assumption 4).
	Alloc *Alloc `json:"alloc,omitempty"`

	// AdmissionPerHost caps concurrent in-flight requests per host; zero
	// means the simulator default (256).
	AdmissionPerHost int `json:"admission_per_host,omitempty"`

	// Horizon is the simulated duration in seconds (default 120).
	Horizon float64 `json:"horizon,omitempty"`

	// Warmup is the statistics warmup boundary in seconds; nil defaults to
	// Horizon/6. An explicit 0 disables the warmup window.
	Warmup *float64 `json:"warmup,omitempty"`

	// Seed drives all randomness; zero defaults to 42.
	Seed uint64 `json:"seed,omitempty"`

	// Failures, when non-nil, enables host failure injection.
	Failures *Failures `json:"failures,omitempty"`

	// Power parameterizes the per-server power model used for energy
	// reporting; nil defaults to the testbed server (250 W idle, 340 W
	// peak) on the platform implied by Mode.
	Power *Power `json:"power,omitempty"`

	// Replication configures the independent-replications study; nil means
	// a single run.
	Replication *Replication `json:"replication,omitempty"`

	// Periods, when non-nil, makes the scenario time-aware: named time
	// bins scaling the services' arrival rates (defaulting to the
	// canonical 24-bin diurnal day). Periods scenarios do not compile to
	// one cluster configuration: PeriodBins resolves the bins' multipliers
	// for plan.SearchPeriods, and ResolvePeriods lowers each bin to a
	// stationary sub-scenario that any evaluator can score.
	Periods *Periods `json:"periods,omitempty"`
}

// Service describes one hosted service.
type Service struct {
	// Name overrides the profile name in reports when non-empty.
	Name string `json:"name,omitempty"`

	// Profile is the service's demand profile (a named preset or inline
	// demands).
	Profile Profile `json:"profile"`

	// Overhead is the virtualization impact model; nil means no overhead.
	Overhead *Overhead `json:"overhead,omitempty"`

	// Arrivals drives the service open-loop. Mutually exclusive with
	// Clients.
	Arrivals *workload.ArrivalSpec `json:"arrivals,omitempty"`

	// Clients, when positive, drives the service closed-loop with that
	// many emulated browsers.
	Clients int `json:"clients,omitempty"`

	// ThinkTime is the closed-loop think-time distribution; nil means
	// exponential with mean 7 s (the TPC-W default).
	ThinkTime *stats.DistSpec `json:"think_time,omitempty"`

	// DedicatedServers is the service's pool size in dedicated mode.
	DedicatedServers int `json:"dedicated_servers,omitempty"`

	// MemoryGB is the VM's memory allocation in consolidated mode; zero
	// means the simulator default (1 GB).
	MemoryGB float64 `json:"memory_gb,omitempty"`
}

// Profile names a service demand profile: either a registered preset
// ("specweb-ecommerce", "specweb-cpubound", "tpcw-ebook") or an inline
// definition with per-resource demand distributions.
type Profile struct {
	// Preset selects a built-in profile; mutually exclusive with Demands.
	Preset string `json:"preset,omitempty"`

	// Name is the inline profile's name (required without Preset).
	Name string `json:"name,omitempty"`

	// Demands maps resource names to per-request service-time
	// distributions on native hardware.
	Demands map[string]stats.DistSpec `json:"demands,omitempty"`

	// OSCeiling caps the request completion rate of a single OS image in
	// requests per second; zero means no ceiling.
	OSCeiling float64 `json:"os_ceiling,omitempty"`

	// Metric is the throughput unit reported for this service.
	Metric string `json:"metric,omitempty"`

	// DemandSCV, when non-nil, replaces every demand distribution with one
	// of the same mean and this squared coefficient of variation — the
	// service-time insensitivity knob.
	DemandSCV *float64 `json:"demand_scv,omitempty"`
}

// Overhead describes the virtualization impact curves of one service:
// either a preset ("web", "db", "none") or inline per-resource curves.
type Overhead struct {
	// Preset selects the case-study curves; mutually exclusive with
	// Curves.
	Preset string `json:"preset,omitempty"`

	// Curves maps resource names to impact curves.
	Curves map[string]Curve `json:"curves,omitempty"`

	// Pinning is "pinned" (default) or "xen-scheduled" (applies the
	// Fig. 7 penalty to CPU-family resources).
	Pinning string `json:"pinning,omitempty"`

	// CPUResources names the resources the pinning policy affects; empty
	// means {"cpu"}.
	CPUResources []string `json:"cpu_resources,omitempty"`
}

// Curve is one declarative impact curve a(v).
type Curve struct {
	// Kind is "linear" (a = intercept + slope·v), "rational"
	// (a = c·v²/(1+v²)) or "constant" (a = value).
	Kind string `json:"kind"`

	Intercept float64 `json:"intercept,omitempty"`
	Slope     float64 `json:"slope,omitempty"`
	C         float64 `json:"c,omitempty"`
	Value     float64 `json:"value,omitempty"`
}

// Fleet shapes the consolidated pool.
type Fleet struct {
	// Hosts is the homogeneous pool size. With Classes set it may be 0 or
	// must equal the summed class counts. Defaults to 4 in consolidated
	// mode when Classes is empty.
	Hosts int `json:"hosts,omitempty"`

	// Classes, when non-empty, makes the pool heterogeneous.
	Classes []HostClass `json:"classes,omitempty"`

	// HostMemoryGB is each host's physical memory; zero means 8 GB.
	HostMemoryGB float64 `json:"host_memory_gb,omitempty"`

	// Dom0MemoryGB is the Domain-0 reservation; zero means 1 GB.
	Dom0MemoryGB float64 `json:"dom0_memory_gb,omitempty"`
}

// HostClass is one hardware class of a heterogeneous pool: either a preset
// ("amd" = reference, "intel" = 1/1.2 capability, "blade" = 1/2) or a
// named class with explicit capability multipliers.
type HostClass struct {
	// Preset selects a built-in class; mutually exclusive with Capability.
	Preset string `json:"preset,omitempty"`

	// Name identifies the class in reports (defaults to Preset).
	Name string `json:"name,omitempty"`

	// Count is how many hosts of this class to instantiate.
	Count int `json:"count"`

	// Capability maps resources to speed multipliers relative to the
	// reference server; missing resources default to 1.
	Capability map[string]float64 `json:"capability,omitempty"`

	// Power, when non-nil, overrides the scenario-level power model for
	// hosts of this class (watts; Platform must stay empty — the fleet
	// platform applies to every class). The analytic evaluator and the
	// placement planner account energy per class with it; the cluster
	// simulator's energy report keeps using the fleet-wide model.
	Power *Power `json:"power,omitempty"`
}

// hostClassPresets are the built-in hardware classes (the paper's
// Discussion: Intel machines run the case-study workloads ~20 % slower
// than the reference AMD servers).
var hostClassPresets = map[string]map[string]float64{
	"amd":   nil, // reference
	"intel": {workload.CPU: 1 / 1.2, workload.DiskIO: 1 / 1.2},
	"blade": {workload.CPU: 0.5, workload.DiskIO: 0.5},
}

// Alloc selects the consolidated resource allocator.
type Alloc struct {
	// Policy is "static", "proportional" or "priority". ("flowing" is
	// expressed by omitting Alloc entirely.)
	Policy string `json:"policy"`

	// Period is the reallocation interval in seconds for proportional and
	// priority policies; zero means 1 s.
	Period float64 `json:"period,omitempty"`

	// Cost is the capacity fraction lost to the reallocation machinery.
	Cost float64 `json:"cost,omitempty"`

	// MinShare is the per-VM guaranteed share floor (proportional).
	MinShare float64 `json:"min_share,omitempty"`

	// Weights are per-VM relative weights (static); empty means equal.
	Weights []float64 `json:"weights,omitempty"`

	// Priorities holds one rank per VM, lower = higher priority
	// (priority); empty means service order.
	Priorities []int `json:"priorities,omitempty"`

	// DemandCap bounds a single VM's per-round share (priority); zero
	// means 1.
	DemandCap float64 `json:"demand_cap,omitempty"`
}

// Failures enables host failure injection: exponential times-to-failure
// and times-to-repair.
type Failures struct {
	MTBF float64 `json:"mtbf"`
	MTTR float64 `json:"mttr"`
}

// Power parameterizes the linear per-server power model.
type Power struct {
	// BaseW is the idle draw, MaxW the full-utilization draw, in watts.
	BaseW float64 `json:"base_w,omitempty"`
	MaxW  float64 `json:"max_w,omitempty"`

	// Platform is "linux" or "xen"; empty selects linux for dedicated
	// scenarios and xen for consolidated ones.
	Platform string `json:"platform,omitempty"`
}

// Replication configures the independent-replications study.
type Replication struct {
	// Reps is the number of replications (seeds seed, seed+1, ...);
	// zero or one means a single run.
	Reps int `json:"reps,omitempty"`

	// Workers bounds concurrent replications; zero means all CPUs. The
	// worker count never changes results.
	Workers int `json:"workers,omitempty"`

	// Precision enables CI-driven early stopping on the pooled loss
	// probability when positive. Requires Reps > 1.
	Precision float64 `json:"precision,omitempty"`

	// Confidence is the CI level for early stopping; zero means 0.95.
	Confidence float64 `json:"confidence,omitempty"`

	// TimeoutSec is the wall-clock budget in seconds; zero means none.
	TimeoutSec float64 `json:"timeout_sec,omitempty"`

	// Shards partitions each replication's fleet into up to this many
	// independently simulated shards run on concurrent goroutines
	// (dedicated mode only — a consolidated fleet is one coupling
	// component). Zero or one means sequential. Like Workers, the shard
	// count never changes results.
	Shards int `json:"shards,omitempty"`
}

// Parse strictly decodes one scenario from JSON: unknown fields are
// rejected so typos in scenario files fail loudly instead of silently
// falling back to defaults, and nothing but whitespace may follow the
// scenario object.
func Parse(r io.Reader) (Scenario, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return Scenario{}, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	return ParseBytes(data)
}

// ParseBytes decodes one scenario from a JSON byte slice (jsonenc.Decode).
func ParseBytes(data []byte) (Scenario, error) {
	var s Scenario
	if err := jsonenc.Decode(data, &s); err != nil {
		return Scenario{}, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	return s, nil
}

// Encode renders the scenario as indented JSON with a trailing newline —
// the canonical form golden fixtures and -dump-scenario use.
func (s Scenario) Encode(w io.Writer) error {
	data, err := s.MarshalIndent()
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// MarshalIndent renders the scenario as indented JSON with a trailing
// newline.
func (s Scenario) MarshalIndent() ([]byte, error) {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// ApplyDefaults materializes the documented defaults in place, producing
// the resolved scenario that -dump-scenario emits and run manifests embed.
// Simulator-internal defaults (admission cap, memory sizes, think time)
// stay zero: the compiled configuration applies them identically either
// way.
func (s *Scenario) ApplyDefaults() {
	if s.Mode == "" {
		s.Mode = "consolidated"
	}
	if s.Horizon == 0 {
		s.Horizon = 120
	}
	if s.Warmup == nil {
		w := s.Horizon / 6
		s.Warmup = &w
	}
	if s.Seed == 0 {
		s.Seed = 42
	}
	if s.Mode == "consolidated" && s.Fleet.Hosts == 0 && len(s.Fleet.Classes) == 0 {
		s.Fleet.Hosts = 4
	}
	if s.Power == nil {
		s.Power = &Power{}
	}
	if s.Power.BaseW == 0 && s.Power.MaxW == 0 {
		s.Power.BaseW, s.Power.MaxW = 250, 340 // the testbed server
	}
	if s.Power.Platform == "" {
		if s.Mode == "dedicated" {
			s.Power.Platform = "linux"
		} else {
			s.Power.Platform = "xen"
		}
	}
	if s.Replication == nil {
		s.Replication = &Replication{}
	}
	if s.Replication.Reps == 0 {
		s.Replication.Reps = 1
	}
	for i := range s.Fleet.Classes {
		hc := &s.Fleet.Classes[i]
		if hc.Name == "" {
			hc.Name = hc.Preset
		}
	}
	if s.Periods != nil {
		s.Periods.applyDefaults()
	}
}

// Resolve returns the resolved scenario: a deep copy of s (Clone) with
// its defaults applied, validated once. Planners and evaluators resolve a
// request's scenario once and hand the copy down to PeriodBins and
// eval.Analytic.Compile, which neither copy, default nor validate it
// again. The receiver is left as it was.
func (s Scenario) Resolve() (Scenario, error) {
	resolved := s.Clone()
	resolved.ApplyDefaults()
	if err := resolved.validate(); err != nil {
		return Scenario{}, err
	}
	return resolved, nil
}

// Validate checks the scenario. It accepts both raw and resolved
// scenarios: zero-valued optional fields are treated as their defaults.
// The receiver is left as it was.
func (s Scenario) Validate() error {
	resolved := s.ownDefaults()
	resolved.ApplyDefaults()
	return resolved.validate()
}

// ownDefaults returns a copy of s that owns whatever ApplyDefaults is
// about to write through — Power, Replication and the fleet's class list
// when one of their fields is unset, Periods and its bins always — so
// defaulting the copy leaves the caller's scenario untouched. It copies
// nothing for a resolved periods-free scenario, which every sweep point
// validates and compiles on its request path; a default added to
// ApplyDefaults behind a shared pointer must be added here too.
func (s Scenario) ownDefaults() Scenario {
	if p := s.Power; p != nil && (p.BaseW == 0 && p.MaxW == 0 || p.Platform == "") {
		c := *p
		s.Power = &c
	}
	if r := s.Replication; r != nil && r.Reps == 0 {
		c := *r
		s.Replication = &c
	}
	if slices.ContainsFunc(s.Fleet.Classes, func(hc HostClass) bool { return hc.Name == "" }) {
		s.Fleet.Classes = slices.Clone(s.Fleet.Classes)
	}
	if s.Periods != nil {
		p := *s.Periods
		p.Bins = slices.Clone(p.Bins)
		s.Periods = &p
	}
	return s
}

func (s Scenario) validate() error {
	if s.Mode != "dedicated" && s.Mode != "consolidated" {
		return fmt.Errorf("%w: mode %q (want dedicated or consolidated)", ErrInvalid, s.Mode)
	}
	if len(s.Services) == 0 {
		return fmt.Errorf("%w: no services", ErrInvalid)
	}
	for i := range s.Services {
		if err := s.Services[i].validate(s.Mode); err != nil {
			return fmt.Errorf("service %d: %w", i, err)
		}
	}
	if err := s.Fleet.validate(s.Mode); err != nil {
		return err
	}
	if s.Mode == "dedicated" && s.Alloc != nil {
		return fmt.Errorf("%w: alloc is a consolidated-mode setting", ErrInvalid)
	}
	if s.Alloc != nil {
		if err := s.Alloc.validate(len(s.Services)); err != nil {
			return err
		}
	}
	if s.AdmissionPerHost < 0 {
		return fmt.Errorf("%w: admission_per_host %d", ErrInvalid, s.AdmissionPerHost)
	}
	if !(s.Horizon > 0) || math.IsInf(s.Horizon, 0) {
		return fmt.Errorf("%w: horizon %g", ErrInvalid, s.Horizon)
	}
	if w := *s.Warmup; w < 0 || math.IsNaN(w) || w >= s.Horizon {
		return fmt.Errorf("%w: warmup %g (horizon %g)", ErrInvalid, w, s.Horizon)
	}
	if s.Failures != nil {
		if !(s.Failures.MTBF > 0) || !(s.Failures.MTTR > 0) ||
			math.IsInf(s.Failures.MTBF, 0) || math.IsInf(s.Failures.MTTR, 0) {
			return fmt.Errorf("%w: failures need positive mtbf and mttr", ErrInvalid)
		}
	}
	if p := s.Power; p != nil {
		if p.BaseW < 0 || p.MaxW < p.BaseW || math.IsNaN(p.BaseW) || math.IsNaN(p.MaxW) ||
			math.IsInf(p.MaxW, 0) {
			return fmt.Errorf("%w: power base_w=%g max_w=%g", ErrInvalid, p.BaseW, p.MaxW)
		}
		if p.Platform != "" && p.Platform != "linux" && p.Platform != "xen" {
			return fmt.Errorf("%w: power platform %q", ErrInvalid, p.Platform)
		}
	}
	if r := s.Replication; r != nil {
		if r.Reps < 1 {
			return fmt.Errorf("%w: replication reps %d", ErrInvalid, r.Reps)
		}
		if r.Workers < 0 {
			return fmt.Errorf("%w: replication workers %d", ErrInvalid, r.Workers)
		}
		if r.Precision < 0 || math.IsNaN(r.Precision) {
			return fmt.Errorf("%w: replication precision %g", ErrInvalid, r.Precision)
		}
		if r.Precision > 0 && r.Reps <= 1 {
			return fmt.Errorf("%w: precision-driven early stopping needs reps > 1", ErrInvalid)
		}
		if r.Confidence < 0 || r.Confidence >= 1 || math.IsNaN(r.Confidence) {
			return fmt.Errorf("%w: replication confidence %g", ErrInvalid, r.Confidence)
		}
		if r.TimeoutSec < 0 || math.IsNaN(r.TimeoutSec) {
			return fmt.Errorf("%w: replication timeout_sec %g", ErrInvalid, r.TimeoutSec)
		}
		if r.Shards < 0 {
			return fmt.Errorf("%w: replication shards %d", ErrInvalid, r.Shards)
		}
	}
	if s.Periods != nil {
		if err := s.Periods.validate(s.Services); err != nil {
			return err
		}
	}
	return nil
}

func (s Service) validate(mode string) error {
	if err := s.Profile.validate(); err != nil {
		return err
	}
	if s.Overhead != nil {
		if err := s.Overhead.validate(); err != nil {
			return err
		}
	}
	open := s.Arrivals != nil
	closed := s.Clients > 0
	if !open && !closed {
		return fmt.Errorf("%w: needs either arrivals or clients", ErrInvalid)
	}
	if open && closed {
		return fmt.Errorf("%w: both open-loop arrivals and closed-loop clients", ErrInvalid)
	}
	if s.Clients < 0 {
		return fmt.Errorf("%w: clients %d", ErrInvalid, s.Clients)
	}
	if open {
		if err := s.Arrivals.Validate(); err != nil {
			return err
		}
	}
	if s.ThinkTime != nil {
		if !closed {
			return fmt.Errorf("%w: think_time without clients", ErrInvalid)
		}
		if err := s.ThinkTime.Validate(); err != nil {
			return err
		}
	}
	if mode == "dedicated" && s.DedicatedServers <= 0 {
		return fmt.Errorf("%w: dedicated mode needs dedicated_servers", ErrInvalid)
	}
	if s.DedicatedServers < 0 {
		return fmt.Errorf("%w: dedicated_servers %d", ErrInvalid, s.DedicatedServers)
	}
	if s.MemoryGB < 0 || math.IsNaN(s.MemoryGB) || math.IsInf(s.MemoryGB, 0) {
		return fmt.Errorf("%w: memory_gb %g", ErrInvalid, s.MemoryGB)
	}
	return nil
}

func (p Profile) validate() error {
	switch {
	case p.Preset != "" && len(p.Demands) > 0:
		return fmt.Errorf("%w: profile has both preset and inline demands", ErrInvalid)
	case p.Preset != "":
		if _, ok := profilePresets[p.Preset]; !ok {
			return fmt.Errorf("%w: unknown profile preset %q (have %s)",
				ErrInvalid, p.Preset, presetNameList(profilePresetNames))
		}
		if p.OSCeiling != 0 || p.Metric != "" {
			return fmt.Errorf("%w: os_ceiling/metric are inline-profile fields", ErrInvalid)
		}
	default:
		if p.Name == "" {
			return fmt.Errorf("%w: inline profile needs a name", ErrInvalid)
		}
		if len(p.Demands) == 0 {
			return fmt.Errorf("%w: profile needs a preset or inline demands", ErrInvalid)
		}
		// Name the least failing resource, the first in the sorted order,
		// so the message does not depend on map order.
		bad, found := "", false
		for r, d := range p.Demands {
			if (r == "" || d.Validate() != nil) && (!found || r < bad) {
				bad, found = r, true
			}
		}
		switch {
		case found && bad == "":
			return fmt.Errorf("%w: empty resource name in demands", ErrInvalid)
		case found:
			return fmt.Errorf("demand %q: %w", bad, p.Demands[bad].Validate())
		}
		if p.OSCeiling < 0 || math.IsNaN(p.OSCeiling) || math.IsInf(p.OSCeiling, 0) {
			return fmt.Errorf("%w: os_ceiling %g", ErrInvalid, p.OSCeiling)
		}
	}
	if p.DemandSCV != nil {
		if v := *p.DemandSCV; v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: demand_scv %g", ErrInvalid, v)
		}
	}
	return nil
}

func (o Overhead) validate() error {
	switch {
	case o.Preset != "" && len(o.Curves) > 0:
		return fmt.Errorf("%w: overhead has both preset and inline curves", ErrInvalid)
	case o.Preset != "":
		if o.Preset != "web" && o.Preset != "db" && o.Preset != "none" {
			return fmt.Errorf("%w: unknown overhead preset %q (web, db, none)", ErrInvalid, o.Preset)
		}
	default:
		// Name the least failing resource, as Profile's check does.
		bad, found := "", false
		for r, c := range o.Curves {
			if (r == "" || c.validate() != nil) && (!found || r < bad) {
				bad, found = r, true
			}
		}
		switch {
		case found && bad == "":
			return fmt.Errorf("%w: empty resource name in curves", ErrInvalid)
		case found:
			return fmt.Errorf("curve %q: %w", bad, o.Curves[bad].validate())
		}
	}
	if o.Pinning != "" && o.Pinning != "pinned" && o.Pinning != "xen-scheduled" {
		return fmt.Errorf("%w: pinning %q (pinned, xen-scheduled)", ErrInvalid, o.Pinning)
	}
	return nil
}

func (c Curve) validate() error {
	switch c.Kind {
	case "linear":
		if math.IsNaN(c.Intercept) || math.IsNaN(c.Slope) ||
			math.IsInf(c.Intercept, 0) || math.IsInf(c.Slope, 0) {
			return fmt.Errorf("%w: linear curve %g%+g·v", ErrInvalid, c.Intercept, c.Slope)
		}
	case "rational":
		if !(c.C > 0) || math.IsInf(c.C, 0) {
			return fmt.Errorf("%w: rational curve c %g", ErrInvalid, c.C)
		}
	case "constant":
		if !(c.Value > 0) || math.IsInf(c.Value, 0) {
			return fmt.Errorf("%w: constant curve value %g", ErrInvalid, c.Value)
		}
	case "":
		return fmt.Errorf("%w: curve missing kind", ErrInvalid)
	default:
		return fmt.Errorf("%w: unknown curve kind %q (linear, rational, constant)", ErrInvalid, c.Kind)
	}
	return nil
}

func (f Fleet) validate(mode string) error {
	if mode == "dedicated" {
		if f.Hosts != 0 || len(f.Classes) != 0 {
			return fmt.Errorf("%w: fleet hosts/classes are consolidated-mode settings", ErrInvalid)
		}
		return nil
	}
	if f.Hosts < 0 {
		return fmt.Errorf("%w: fleet hosts %d", ErrInvalid, f.Hosts)
	}
	classTotal := 0
	for i, hc := range f.Classes {
		if err := hc.validate(); err != nil {
			return fmt.Errorf("fleet class %d: %w", i, err)
		}
		classTotal += hc.Count
	}
	switch {
	case len(f.Classes) > 0 && f.Hosts != 0 && f.Hosts != classTotal:
		return fmt.Errorf("%w: fleet hosts %d != summed class counts %d", ErrInvalid, f.Hosts, classTotal)
	case len(f.Classes) == 0 && f.Hosts == 0:
		return fmt.Errorf("%w: consolidated scenario needs fleet hosts or classes", ErrInvalid)
	}
	if f.HostMemoryGB < 0 || math.IsNaN(f.HostMemoryGB) || math.IsInf(f.HostMemoryGB, 0) ||
		f.Dom0MemoryGB < 0 || math.IsNaN(f.Dom0MemoryGB) || math.IsInf(f.Dom0MemoryGB, 0) {
		return fmt.Errorf("%w: fleet memory sizes", ErrInvalid)
	}
	return nil
}

// ResolvedCapability reports the class's capability multipliers with
// presets expanded: nil means the reference server (every multiplier 1).
// The returned map is shared — callers must not mutate it.
func (h HostClass) ResolvedCapability() map[string]float64 {
	if h.Preset != "" {
		return hostClassPresets[h.Preset]
	}
	return h.Capability
}

// Validate checks one host class on its own (fleet-level checks live in
// Scenario.Validate).
func (h HostClass) Validate() error { return h.validate() }

func (h HostClass) validate() error {
	if h.Preset != "" {
		if _, ok := hostClassPresets[h.Preset]; !ok {
			return fmt.Errorf("%w: unknown host class preset %q (amd, intel, blade)", ErrInvalid, h.Preset)
		}
		if len(h.Capability) > 0 {
			return fmt.Errorf("%w: host class has both preset and capability", ErrInvalid)
		}
	} else if h.Name == "" {
		return fmt.Errorf("%w: host class needs a preset or a name", ErrInvalid)
	}
	if h.Count <= 0 {
		return fmt.Errorf("%w: host class count %d", ErrInvalid, h.Count)
	}
	// Name the least failing resource, as Profile's check does.
	bad, found := "", false
	for r, v := range h.Capability {
		if (r == "" || !(v > 0) || math.IsInf(v, 0)) && (!found || r < bad) {
			bad, found = r, true
		}
	}
	if found {
		return fmt.Errorf("%w: host class capability[%q] = %g", ErrInvalid, bad, h.Capability[bad])
	}
	if p := h.Power; p != nil {
		if p.BaseW <= 0 || p.MaxW < p.BaseW || math.IsNaN(p.BaseW) || math.IsNaN(p.MaxW) ||
			math.IsInf(p.MaxW, 0) {
			return fmt.Errorf("%w: host class power base_w=%g max_w=%g", ErrInvalid, p.BaseW, p.MaxW)
		}
		if p.Platform != "" {
			return fmt.Errorf("%w: host class power takes no platform (the fleet platform applies)", ErrInvalid)
		}
	}
	return nil
}

func (a Alloc) validate(services int) error {
	switch a.Policy {
	case "static":
		if a.Period != 0 || a.Cost != 0 || a.MinShare != 0 || len(a.Priorities) != 0 || a.DemandCap != 0 {
			return fmt.Errorf("%w: static alloc takes only weights", ErrInvalid)
		}
		if len(a.Weights) != 0 && len(a.Weights) != services {
			return fmt.Errorf("%w: %d weights for %d services", ErrInvalid, len(a.Weights), services)
		}
		for i, w := range a.Weights {
			if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
				return fmt.Errorf("%w: weight[%d] = %g", ErrInvalid, i, w)
			}
		}
	case "proportional":
		if len(a.Weights) != 0 || len(a.Priorities) != 0 || a.DemandCap != 0 {
			return fmt.Errorf("%w: proportional alloc takes period, cost and min_share", ErrInvalid)
		}
		if a.MinShare < 0 || a.MinShare > 1 || math.IsNaN(a.MinShare) {
			return fmt.Errorf("%w: min_share %g", ErrInvalid, a.MinShare)
		}
	case "priority":
		if len(a.Weights) != 0 || a.MinShare != 0 {
			return fmt.Errorf("%w: priority alloc takes period, cost, priorities and demand_cap", ErrInvalid)
		}
		if len(a.Priorities) != 0 && len(a.Priorities) != services {
			return fmt.Errorf("%w: %d priorities for %d services", ErrInvalid, len(a.Priorities), services)
		}
		if a.DemandCap < 0 || a.DemandCap > 1 || math.IsNaN(a.DemandCap) {
			return fmt.Errorf("%w: demand_cap %g", ErrInvalid, a.DemandCap)
		}
	case "flowing":
		return fmt.Errorf("%w: ideal flowing is expressed by omitting alloc", ErrInvalid)
	case "":
		return fmt.Errorf("%w: alloc missing policy", ErrInvalid)
	default:
		return fmt.Errorf("%w: unknown alloc policy %q (static, proportional, priority)", ErrInvalid, a.Policy)
	}
	if a.Period < 0 || math.IsNaN(a.Period) || math.IsInf(a.Period, 0) {
		return fmt.Errorf("%w: alloc period %g", ErrInvalid, a.Period)
	}
	if a.Cost < 0 || a.Cost >= 1 || math.IsNaN(a.Cost) {
		return fmt.Errorf("%w: alloc cost %g", ErrInvalid, a.Cost)
	}
	return nil
}

func presetNameList(names []string) string {
	out := ""
	for i, n := range names {
		if i > 0 {
			out += ", "
		}
		out += n
	}
	return out
}
