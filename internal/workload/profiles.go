package workload

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// Resource names match core.Resource values; workload keeps them as plain
// strings to avoid an import cycle with higher layers.
const (
	CPU    = "cpu"
	DiskIO = "diskio"
)

// ServiceProfile describes one benchmark service's demand on a single
// dedicated physical server: for each resource, the distribution of
// service time (seconds of that resource) one request consumes, plus the
// OS-software throughput ceiling the paper discovers for the DB service
// (Fig. 8: "OS software limits the performance improvement for DB
// service").
type ServiceProfile struct {
	// Name identifies the profile ("specweb-ecommerce", "tpcw-ebook", ...).
	Name string

	// Demands maps resources to per-request service-time distributions on
	// native Linux. Resources not present carry zero demand.
	Demands map[string]stats.Distribution

	// OSCeiling caps the request completion rate of a single OS image
	// (native Linux or one VM) in requests per second, regardless of spare
	// hardware capacity. Zero means no ceiling. Multiple VMs each get their
	// own ceiling, which is how consolidation beats native hosting for the
	// DB service.
	OSCeiling float64

	// MetricName is the throughput unit the paper reports for this service
	// ("replies/s" for the Web service, "WIPS" for the DB service).
	MetricName string
}

// ServingRate reports μ for a resource: the reciprocal of the mean demand,
// or +Inf for resources the profile does not touch. This is the model
// input μᵢⱼ of Eq. (3).
func (p ServiceProfile) ServingRate(resource string) float64 {
	d, ok := p.Demands[resource]
	if !ok {
		return math.Inf(1)
	}
	m := d.Mean()
	if m <= 0 {
		return math.Inf(1)
	}
	return 1 / m
}

// BottleneckResource reports the resource with the largest mean demand and
// that resource's serving rate.
func (p ServiceProfile) BottleneckResource() (string, float64) {
	best := ""
	bestRate := math.Inf(1)
	for r := range p.Demands {
		rate := p.ServingRate(r)
		if rate < bestRate || (rate == bestRate && r < best) {
			best, bestRate = r, rate
		}
	}
	return best, bestRate
}

// Validate checks the profile.
func (p ServiceProfile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("workload: profile has no name")
	}
	if len(p.Demands) == 0 {
		return fmt.Errorf("workload: profile %q has no demands", p.Name)
	}
	for r, d := range p.Demands {
		if d == nil {
			return fmt.Errorf("workload: profile %q resource %q has nil demand", p.Name, r)
		}
		m := d.Mean()
		if m < 0 || math.IsNaN(m) {
			return fmt.Errorf("workload: profile %q resource %q mean demand %g", p.Name, r, m)
		}
	}
	if p.OSCeiling < 0 || math.IsNaN(p.OSCeiling) {
		return fmt.Errorf("workload: profile %q OS ceiling %g", p.Name, p.OSCeiling)
	}
	return nil
}

// The reconstructed case-study serving rates (DESIGN.md §2).
const (
	// WebDiskRate is μ_wi: disk I/O completions per second for the
	// e-commerce fileset sweep.
	WebDiskRate = 1420.0
	// WebCPURate is μ_wc: CPU completions per second for Web requests.
	WebCPURate = 3360.0
	// DBCPURate is μ_dc: Web interactions per second one native OS image
	// sustains (the OS-software ceiling; the hardware itself can go
	// higher — see DBHardwareCPURate).
	DBCPURate = 100.0
	// DBHardwareCPURate is the CPU-bound WIPS limit of the physical server
	// once the OS ceiling is lifted by running several VMs: the asymptote
	// 1.85·μ_dc of the paper's Fig. 8(b) rational fit.
	DBHardwareCPURate = 185.0
)

// SPECwebEcommerce models the paper's Web service under the 5.7 GB
// SPECweb2005 e-commerce fileset (Fig. 5): disk-I/O-bound with a secondary
// CPU demand. Service times are exponential with the reconstructed means.
func SPECwebEcommerce() ServiceProfile {
	return ServiceProfile{
		Name: "specweb-ecommerce",
		Demands: map[string]stats.Distribution{
			DiskIO: stats.NewExponential(WebDiskRate),
			CPU:    stats.NewExponential(WebCPURate),
		},
		MetricName: "replies/s",
	}
}

// SPECwebCPUBound models the Fig. 6 configuration: every request fetches
// one 8 KB file that stays in cache, so CPU is the bottleneck and disk
// demand vanishes.
func SPECwebCPUBound() ServiceProfile {
	return ServiceProfile{
		Name: "specweb-cpubound",
		Demands: map[string]stats.Distribution{
			CPU: stats.NewExponential(WebCPURate),
		},
		MetricName: "replies/s",
	}
}

// TPCWEbook models the paper's DB service: TPC-W e-book browsing over a
// 2.7 GB MySQL database (Fig. 8). CPU-bound ("such workload is CPU
// intensive"), negligible disk demand, and an OS-software ceiling of
// DBCPURate per OS image: hardware can complete interactions at
// DBHardwareCPURate, but a single OS image never exceeds DBCPURate —
// reproducing Fig. 8's observation that native Linux and one VM deliver
// half the throughput of multiple VMs.
func TPCWEbook() ServiceProfile {
	return ServiceProfile{
		Name: "tpcw-ebook",
		Demands: map[string]stats.Distribution{
			CPU: stats.NewExponential(DBHardwareCPURate),
		},
		OSCeiling:  DBCPURate,
		MetricName: "WIPS",
	}
}

// WithDemandSCV returns a copy of the profile whose demand distributions
// are replaced by distributions with the same means but the given squared
// coefficient of variation: SCV 1 keeps exponential, SCV 0 gives
// deterministic, SCV > 1 gives hyperexponential, SCV in (0, 1) gives
// Erlang-k with k = round(1/scv). This is the knob the insensitivity
// experiments turn ("the serving rate of each resource follows a general
// steady distribution", assumption 2).
func (p ServiceProfile) WithDemandSCV(scv float64) ServiceProfile {
	if scv < 0 || math.IsNaN(scv) {
		panic(fmt.Sprintf("workload: invalid SCV %v", scv))
	}
	out := p
	out.Demands = make(map[string]stats.Distribution, len(p.Demands))
	for r, d := range p.Demands {
		mean := d.Mean()
		switch {
		case scv == 0:
			out.Demands[r] = stats.Deterministic{Value: mean}
		case scv == 1:
			out.Demands[r] = stats.NewExponential(1 / mean)
		case scv > 1:
			out.Demands[r] = stats.HyperExpWithSCV(mean, scv)
		default:
			k := int(math.Round(1 / scv))
			if k < 2 {
				k = 2
			}
			out.Demands[r] = stats.ErlangKWithMean(mean, k)
		}
	}
	return out
}
