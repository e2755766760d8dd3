package sweep

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"repro/internal/cluster"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// JFloat is a float64 whose JSON form survives NaN and ±Inf: single-rep
// points carry infinite confidence bounds and an idle service's mean
// response time is NaN, and encoding/json refuses both. Finite values use
// strconv's shortest round-trip 'g' form, so cached numbers are bit-exact.
// It stays 'g' (1e-05, 1e+06), not the encoding/json form the rest of the
// API prints (0.00001, 1000000), so the points already in a result cache
// keep their bytes.
type JFloat float64

// MarshalJSON encodes NaN and ±Inf as JSON strings, finite values as
// numbers.
func (f JFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	}
	return strconv.AppendFloat(nil, v, 'g', -1, 64), nil
}

// UnmarshalJSON accepts both the numeric and the string encodings.
func (f *JFloat) UnmarshalJSON(data []byte) error {
	switch string(data) {
	case `"NaN"`:
		*f = JFloat(math.NaN())
		return nil
	case `"+Inf"`:
		*f = JFloat(math.Inf(1))
		return nil
	case `"-Inf"`:
		*f = JFloat(math.Inf(-1))
		return nil
	}
	v, err := strconv.ParseFloat(string(data), 64)
	if err != nil {
		return fmt.Errorf("sweep: bad JFloat %s: %w", data, err)
	}
	*f = JFloat(v)
	return nil
}

// Interval is a serializable confidence interval.
type Interval struct {
	Point JFloat `json:"point"`
	Lo    JFloat `json:"lo"`
	Hi    JFloat `json:"hi"`
}

// CI converts back to the stats form at the given confidence level.
func (iv Interval) CI(confidence float64) stats.CI {
	return stats.CI{
		Point:      float64(iv.Point),
		Lo:         float64(iv.Lo),
		Hi:         float64(iv.Hi),
		Confidence: confidence,
	}
}

func ival(ci stats.CI) Interval {
	return Interval{Point: JFloat(ci.Point), Lo: JFloat(ci.Lo), Hi: JFloat(ci.Hi)}
}

// ServicePoint is one service's cross-replication summary at a point.
type ServicePoint struct {
	Name       string   `json:"name"`
	Loss       Interval `json:"loss"`
	Throughput Interval `json:"throughput"`
	RespMean   Interval `json:"resp_mean"`
	RespP95    Interval `json:"resp_p95"`
	RespP99    Interval `json:"resp_p99"`

	// Arrivals, Served and Lost are per-replication means of the raw
	// counters.
	Arrivals float64 `json:"arrivals"`
	Served   float64 `json:"served"`
	Lost     float64 `json:"lost"`
}

// PointResult is the memoized outcome of one sweep point: everything the
// experiment layer reads from a replication study, in a form that
// round-trips through JSON bit-exactly. Index, Label and CacheHit describe
// the point's place in the current run and are deliberately excluded from
// the serialized (and therefore hashed/cached) form.
type PointResult struct {
	Index    int    `json:"-"`
	Label    string `json:"-"`
	CacheHit bool   `json:"-"`

	// Replications is the number of completed replications the summary
	// covers.
	Replications int  `json:"replications"`
	EarlyStopped bool `json:"early_stopped,omitempty"`

	Services []ServicePoint `json:"services"`

	OverallLoss     Interval `json:"overall_loss"`
	TotalThroughput Interval `json:"total_throughput"`
	BottleneckUtil  Interval `json:"bottleneck_util"`

	// Utilization maps each resource to its mean delivered-work fraction
	// across hosts and replications.
	Utilization map[string]JFloat `json:"utilization,omitempty"`

	// Window is the post-warmup observation duration in seconds.
	Window float64 `json:"window"`

	// EnergyBusyJ and EnergyIdleJ are per-replication mean busy and idle
	// energies over the window, in joules, under the point's compiled power
	// model and platform.
	EnergyBusyJ JFloat `json:"energy_busy_j"`
	EnergyIdleJ JFloat `json:"energy_idle_j"`

	// Hosts is the fleet size the point ran with.
	Hosts int `json:"hosts"`

	// Failures sums host failure events across replications.
	Failures int64 `json:"failures,omitempty"`
}

// summarize folds a replication set into the serializable point form,
// attaching energy figures from the point's compiled power model.
func summarize(set *cluster.ReplicationSet, c scenario.Compiled) PointResult {
	pr := PointResult{
		Replications:    len(set.Results),
		EarlyStopped:    set.EarlyStopped,
		OverallLoss:     ival(set.OverallLoss),
		TotalThroughput: ival(set.TotalThroughput),
		BottleneckUtil:  ival(set.BottleneckUtil),
	}
	for i, svc := range set.Services {
		sp := ServicePoint{
			Name:       svc.Name,
			Loss:       ival(svc.Loss),
			Throughput: ival(svc.Throughput),
			RespMean:   ival(svc.RespMean),
			RespP95:    ival(svc.RespP95),
			RespP99:    ival(svc.RespP99),
		}
		for _, res := range set.Results {
			sm := res.Services[i]
			sp.Arrivals += float64(sm.Arrivals)
			sp.Served += float64(sm.Served)
			sp.Lost += float64(sm.Lost)
		}
		n := float64(len(set.Results))
		if n > 0 {
			sp.Arrivals /= n
			sp.Served /= n
			sp.Lost /= n
		}
		pr.Services = append(pr.Services, sp)
	}
	if len(set.Results) == 0 {
		return pr
	}

	first := set.Results[0]
	pr.Window = first.Window
	pr.Hosts = len(first.Hosts)

	util := map[string]float64{}
	for _, res := range set.Results {
		pr.Failures += res.Failures
		for name := range resourceNames(res) {
			util[name] += res.MeanUtilization(name)
		}
		busy, idle := res.Energy(c.Power, c.Platform)
		pr.EnergyBusyJ += JFloat(busy)
		pr.EnergyIdleJ += JFloat(idle)
	}
	n := JFloat(len(set.Results))
	pr.EnergyBusyJ /= n
	pr.EnergyIdleJ /= n
	if len(util) > 0 {
		pr.Utilization = make(map[string]JFloat, len(util))
		for _, name := range sortedKeys(util) {
			pr.Utilization[name] = JFloat(util[name] / float64(n))
		}
	}
	return pr
}

// resourceNames collects every resource any host reports.
func resourceNames(res *cluster.Result) map[string]bool {
	names := map[string]bool{}
	for _, h := range res.Hosts {
		for name := range h.Utilization {
			names[name] = true
		}
	}
	return names
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
