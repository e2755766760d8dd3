package cluster

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/stats"
)

// ServiceMetrics aggregates one service's post-warmup behaviour.
type ServiceMetrics struct {
	Name     string
	Arrivals int64
	Served   int64
	Lost     int64

	// LossProb is Lost/Arrivals.
	LossProb float64

	// Throughput is Served per second of observation window — the paper's
	// replies/s (Web) or WIPS (DB).
	Throughput float64

	// ResponseTimes summarizes sojourn times of served requests.
	ResponseTimes stats.Accumulator

	// RespP95 and RespP99 are online (P-squared) estimates of the 95th and
	// 99th percentile response times of served requests, in seconds.
	RespP95 float64
	RespP99 float64
}

// HostMetrics aggregates one host's utilization.
type HostMetrics struct {
	ID int

	// Utilization maps each resource to its delivered-work fraction of the
	// full host capacity over the run.
	Utilization map[string]float64

	// Bottleneck is the maximum over resources.
	Bottleneck float64
}

// Result is the outcome of one cluster experiment.
type Result struct {
	Mode     Mode
	Services []ServiceMetrics
	Hosts    []HostMetrics

	// Failures counts host failure events (failure injection only).
	Failures int64

	// Window is the post-warmup observation duration in seconds.
	Window float64

	// Obs is the run's engine-metric snapshot (event counts, admissions,
	// losses, virtual-time advances, per-station occupancy) — the metrics
	// block run manifests embed. Unlike the service metrics above, these
	// counters cover the whole run including warmup.
	Obs obs.Snapshot
}

func newResult(cfg *Config) *Result {
	res := &Result{Mode: cfg.Mode}
	for _, s := range cfg.Services {
		res.Services = append(res.Services, ServiceMetrics{Name: s.Profile.Name})
	}
	return res
}

// Service returns metrics for the named service (nil if absent). When the
// same profile is deployed several times the first match wins; use the
// index-based Services slice for replicas.
func (r *Result) Service(name string) *ServiceMetrics {
	for i := range r.Services {
		if r.Services[i].Name == name {
			return &r.Services[i]
		}
	}
	return nil
}

// TotalThroughput sums service throughputs (only meaningful when metrics
// share a unit).
func (r *Result) TotalThroughput() float64 {
	sum := 0.0
	for _, s := range r.Services {
		sum += s.Throughput
	}
	return sum
}

// MeanUtilization reports the across-host mean utilization of one
// resource.
func (r *Result) MeanUtilization(resource string) float64 {
	if len(r.Hosts) == 0 {
		return 0
	}
	sum := 0.0
	for _, h := range r.Hosts {
		sum += h.Utilization[resource]
	}
	return sum / float64(len(r.Hosts))
}

// MeanBottleneckUtilization reports the across-host mean of each host's
// bottleneck-resource utilization — the "average server utilization" u_s
// the power model consumes.
func (r *Result) MeanBottleneckUtilization() float64 {
	if len(r.Hosts) == 0 {
		return 0
	}
	sum := 0.0
	for _, h := range r.Hosts {
		sum += h.Bottleneck
	}
	return sum / float64(len(r.Hosts))
}

// Energy integrates the linear power model over the run for every host,
// on the given platform, returning joules. Idle reports the energy the
// same number of powered-on idle hosts would have drawn.
func (r *Result) Energy(model power.ServerModel, platform power.Platform) (total, idle float64) {
	for _, h := range r.Hosts {
		total += model.Draw(h.Bottleneck, platform) * r.Window
		idle += model.IdleDraw(platform) * r.Window
	}
	return total, idle
}

// String renders a compact report.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d hosts, window %.0fs\n", r.Mode, len(r.Hosts), r.Window)
	for _, s := range r.Services {
		mrt := s.ResponseTimes.Mean()
		if math.IsNaN(mrt) {
			mrt = 0
		}
		fmt.Fprintf(&b, "  %-20s thr=%8.2f loss=%6.4f resp=%7.4fs p95=%7.4fs (n=%d)\n",
			s.Name, s.Throughput, s.LossProb, mrt, s.RespP95, s.Served)
	}
	fmt.Fprintf(&b, "  mean bottleneck utilization: %.3f", r.MeanBottleneckUtilization())
	return b.String()
}
