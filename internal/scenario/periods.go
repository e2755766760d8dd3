package scenario

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/diurnal"
	"repro/internal/workload"
)

// Periods declares the time-aware view of a scenario: an ordered set of
// named time bins, each scaling the services' mean arrival rates, so one
// scenario describes a whole (typically diurnal) traffic cycle instead of
// a single stationary load. A periods scenario is a planning construct —
// it does not compile to one cluster configuration: PeriodBins resolves
// its bins' multipliers, which plan.SearchPeriods applies to a compiled
// kernel, and ResolvePeriods lowers each bin to a stationary sub-scenario
// for eval.EvaluatePeriods (DESIGN.md §13).
type Periods struct {
	// BinSec is each bin's duration in seconds; zero defaults to 3600
	// (an hour of the canonical day).
	BinSec float64 `json:"bin_sec,omitempty"`

	// Bins are the ordered time bins. Empty defaults to one day of the
	// canonical 24-bin diurnal profile (diurnal.DayShape) sampled at
	// BinSec: bins h00, h01, … with the day-shape multiplier at each
	// bin's start time.
	Bins []PeriodBin `json:"bins,omitempty"`
}

// PeriodBin is one named time bin of a Periods spec.
type PeriodBin struct {
	// Name labels the bin in plans and reports; empty defaults to the
	// positional "h00", "h01", ….
	Name string `json:"name,omitempty"`

	// Multiplier scales every service's mean arrival rate for this bin.
	// Zero (with Multipliers empty) defaults to the canonical day shape's
	// value at the bin's start time.
	Multiplier float64 `json:"multiplier,omitempty"`

	// Multipliers, when non-empty, gives one multiplier per service in
	// scenario order. Mutually exclusive with Multiplier.
	Multipliers []float64 `json:"multipliers,omitempty"`
}

// applyDefaults materializes the periods defaults: an hourly bin width,
// one day of bins, positional names, and day-shape multipliers sampled at
// each bin's start time (the strictly-containing-window lookup of
// diurnal.Series.At, so non-representable bin edges read the right hour).
func (p *Periods) applyDefaults() {
	if p.BinSec == 0 {
		p.BinSec = 3600
	}
	if len(p.Bins) == 0 && p.BinSec > 0 {
		day := diurnal.DayShape()
		n := int(math.Round(day.BinSec * float64(len(day.Values)) / p.BinSec))
		if n < 1 {
			n = 1
		}
		p.Bins = make([]PeriodBin, n)
	}
	shape := diurnal.DayShape()
	for i := range p.Bins {
		b := &p.Bins[i]
		if b.Name == "" {
			prefix := "h"
			if i < 10 {
				prefix = "h0"
			}
			b.Name = prefix + strconv.Itoa(i)
		}
		if b.Multiplier == 0 && len(b.Multipliers) == 0 && p.BinSec > 0 {
			b.Multiplier = shape.At(float64(i) * p.BinSec)
		}
	}
}

// validate checks a resolved periods spec against the scenario's services.
func (p *Periods) validate(services []Service) error {
	if !(p.BinSec > 0) || math.IsInf(p.BinSec, 0) {
		return fmt.Errorf("%w: periods bin_sec %g", ErrInvalid, p.BinSec)
	}
	if len(p.Bins) == 0 {
		return fmt.Errorf("%w: periods needs at least one bin", ErrInvalid)
	}
	for i, b := range p.Bins {
		if b.Multiplier != 0 && len(b.Multipliers) > 0 {
			return fmt.Errorf("%w: periods bin %d has both multiplier and multipliers", ErrInvalid, i)
		}
		if len(b.Multipliers) > 0 && len(b.Multipliers) != len(services) {
			return fmt.Errorf("%w: periods bin %d has %d multipliers for %d services", ErrInvalid, i, len(b.Multipliers), len(services))
		}
		check := b.Multipliers
		if len(check) == 0 {
			check = []float64{b.Multiplier}
		}
		for _, m := range check {
			if !(m > 0) || math.IsInf(m, 0) {
				return fmt.Errorf("%w: periods bin %d multiplier %g", ErrInvalid, i, m)
			}
		}
	}
	for i, svc := range services {
		if svc.Arrivals == nil {
			return fmt.Errorf("%w: periods rescale open-loop arrival rates, but service %d is closed-loop", ErrInvalid, i)
		}
	}
	return nil
}

// binMultipliers reports bin b's per-service multipliers (broadcasting the
// scalar form), on a resolved spec.
func (p *Periods) binMultipliers(bin, services int) []float64 {
	b := p.Bins[bin]
	out := make([]float64, services)
	for i := range out {
		if len(b.Multipliers) > 0 {
			out[i] = b.Multipliers[i]
		} else {
			out[i] = b.Multiplier
		}
	}
	return out
}

// PeriodScenario is one resolved time bin: its identity, duration,
// per-service rate multipliers, and (from ResolvePeriods, not PeriodBins)
// the stationary periods-free sub-scenario evaluators consume.
type PeriodScenario struct {
	Index       int
	Name        string
	Seconds     float64
	Multipliers []float64
	Scenario    Scenario
}

// BaseRates reports each service's mean arrival rate — the stationary
// rate the periods multipliers scale. Every service must be open-loop.
func (s Scenario) BaseRates() ([]float64, error) {
	rates := make([]float64, len(s.Services))
	for i := range s.Services {
		svc := s.Services[i]
		if svc.Arrivals == nil {
			return nil, fmt.Errorf("%w: service %d has no open-loop arrival rate", ErrInvalid, i)
		}
		proc, err := svc.Arrivals.Build()
		if err != nil {
			return nil, fmt.Errorf("service %d arrivals: %w", i, err)
		}
		rates[i] = proc.Rate()
	}
	return rates, nil
}

// Stationary returns the periods-free stationary scenario in which each
// service's arrival process is replaced by a Poisson process at mults[i]
// times its mean rate — the sub-scenario one time bin resolves to. The
// receiver may be raw or resolved; the result is resolved.
func (s Scenario) Stationary(label string, mults []float64) (Scenario, error) {
	resolved := s.Clone()
	resolved.ApplyDefaults()
	if len(mults) != len(resolved.Services) {
		return Scenario{}, fmt.Errorf("%w: %d multipliers for %d services", ErrInvalid, len(mults), len(resolved.Services))
	}
	rates, err := resolved.BaseRates()
	if err != nil {
		return Scenario{}, err
	}
	resolved.Periods = nil
	if label != "" {
		if resolved.Name != "" {
			resolved.Name = resolved.Name + "@" + label
		} else {
			resolved.Name = label
		}
	}
	for i := range resolved.Services {
		if !(mults[i] > 0) || math.IsInf(mults[i], 0) {
			return Scenario{}, fmt.Errorf("%w: multiplier[%d] = %g", ErrInvalid, i, mults[i])
		}
		resolved.Services[i].Arrivals = workload.PoissonSpec(rates[i] * mults[i])
	}
	return resolved, nil
}

// PeriodBins lists a resolved periods scenario's bins — index, name,
// duration and per-service multipliers — and leaves each bin's Scenario
// zero: a caller scoring rescaled kernels needs no more. The receiver
// must be resolved (Resolve), which defaulted and validated its periods;
// PeriodBins does neither again. ResolvePeriods accepts a raw scenario.
func (s Scenario) PeriodBins() ([]PeriodScenario, error) {
	p := s.Periods
	if p == nil {
		return nil, fmt.Errorf("%w: scenario has no periods", ErrInvalid)
	}
	out := make([]PeriodScenario, len(p.Bins))
	for b := range p.Bins {
		out[b] = PeriodScenario{Index: b, Name: p.Bins[b].Name, Seconds: p.BinSec, Multipliers: p.binMultipliers(b, len(s.Services))}
	}
	return out, nil
}

// ResolvePeriods resolves s and lists its bins (PeriodBins), each with
// its stationary sub-scenario: bin b keeps everything about the scenario
// except that each service's arrival process becomes Poisson at the
// bin's multiplier times the service's mean rate. The mean (not
// instantaneous) rate is deliberate: a bin is the stationary regime the
// paper's model prices, so an NHPP or MMPP base process contributes its
// cycle mean.
func (s Scenario) ResolvePeriods() ([]PeriodScenario, error) {
	resolved, err := s.Resolve()
	if err != nil {
		return nil, err
	}
	bins, err := resolved.PeriodBins()
	if err != nil {
		return nil, err
	}
	for b := range bins {
		if bins[b].Scenario, err = resolved.Stationary(bins[b].Name, bins[b].Multipliers); err != nil {
			return nil, fmt.Errorf("periods bin %d: %w", b, err)
		}
	}
	return bins, nil
}
