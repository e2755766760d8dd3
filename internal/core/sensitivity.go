package core

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Sensitivity analysis: which inputs move the plan? The model's inputs
// (arrival rates, serving rates, impact factors, the loss target) are
// estimates; a planner needs to know which of them the server counts
// actually hinge on before trusting a 50 %-savings headline. Perturb
// quantifies that by re-solving the model with each input scaled up and
// down by a relative step and reporting the resulting M and N.

// Perturbation identifies one perturbed input and the plan it produces.
type Perturbation struct {
	// Parameter names the input, e.g. "web.arrivalRate",
	// "db.servingRate[cpu]", "web.impactFactor[diskio]", "lossTarget".
	Parameter string

	// Factor is the multiplicative change applied (e.g. 1.1 or 0.9).
	Factor float64

	// M and N are the resulting server counts.
	M, N int

	// DeltaM and DeltaN are the changes relative to the base plan.
	DeltaM, DeltaN int
}

// SensitivityReport is the full perturbation sweep.
type SensitivityReport struct {
	BaseM, BaseN int
	Rows         []Perturbation
}

// String renders the report compactly.
func (r *SensitivityReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "base plan: M=%d N=%d\n", r.BaseM, r.BaseN)
	for _, p := range r.Rows {
		marker := " "
		if p.DeltaN != 0 {
			marker = "*"
		}
		fmt.Fprintf(&b, "%s %-28s x%.2f -> M=%d (%+d) N=%d (%+d)\n",
			marker, p.Parameter, p.Factor, p.M, p.DeltaM, p.N, p.DeltaN)
	}
	return b.String()
}

// Sensitivity re-solves the model with every input perturbed by ±step
// (relative, e.g. 0.1 for ±10 %) and reports the plans. Impact factors are
// clamped to (0, 1] after scaling; the loss target to (0, 1). A zero step
// defaults to 0.1.
func (m *Model) Sensitivity(step float64) (*SensitivityReport, error) {
	if step == 0 {
		step = 0.1
	}
	if step <= 0 || step >= 1 {
		return nil, fmt.Errorf("%w: sensitivity step %g outside (0,1)", ErrInvalidModel, step)
	}
	base, err := m.Solve()
	if err != nil {
		return nil, err
	}
	report := &SensitivityReport{
		BaseM: base.Dedicated.Servers,
		BaseN: base.Consolidated.Servers,
	}

	solvePerturbed := func(name string, factor float64, mutate func(*Model)) error {
		clone := m.clone()
		mutate(clone)
		res, err := clone.Solve()
		if err != nil {
			return fmt.Errorf("core: sensitivity %s x%.2f: %w", name, factor, err)
		}
		report.Rows = append(report.Rows, Perturbation{
			Parameter: name,
			Factor:    factor,
			M:         res.Dedicated.Servers,
			N:         res.Consolidated.Servers,
			DeltaM:    res.Dedicated.Servers - report.BaseM,
			DeltaN:    res.Consolidated.Servers - report.BaseN,
		})
		return nil
	}

	factors := []float64{1 + step, 1 - step}
	for si := range m.Services {
		svc := m.Services[si]
		for _, f := range factors {
			si, f := si, f
			name := fmt.Sprintf("%s.arrivalRate", svc.Name)
			if err := solvePerturbed(name, f, func(c *Model) {
				c.Services[si].ArrivalRate *= f
			}); err != nil {
				return nil, err
			}
		}
		for _, j := range sortedResources(svc.ServingRates) {
			if math.IsInf(svc.ServingRates[j], 1) {
				continue
			}
			for _, f := range factors {
				si, j, f := si, j, f
				name := fmt.Sprintf("%s.servingRate[%s]", svc.Name, j)
				if err := solvePerturbed(name, f, func(c *Model) {
					c.Services[si].ServingRates[j] *= f
				}); err != nil {
					return nil, err
				}
			}
		}
		for _, j := range sortedResources(svc.ImpactFactors) {
			for _, f := range factors {
				si, j, f := si, j, f
				name := fmt.Sprintf("%s.impactFactor[%s]", svc.Name, j)
				if err := solvePerturbed(name, f, func(c *Model) {
					a := c.Services[si].ImpactFactors[j] * f
					if a > 1 {
						a = 1
					}
					if a <= 0 {
						a = 0.01
					}
					c.Services[si].ImpactFactors[j] = a
				}); err != nil {
					return nil, err
				}
			}
		}
	}
	for _, f := range factors {
		f := f
		if err := solvePerturbed("lossTarget", f, func(c *Model) {
			b := c.LossTarget * f
			if b >= 1 {
				b = 0.999
			}
			c.LossTarget = b
		}); err != nil {
			return nil, err
		}
	}
	return report, nil
}

// clone deep-copies the model's mutable parts.
func (m *Model) clone() *Model {
	c := *m
	c.Services = make([]Service, len(m.Services))
	for i, s := range m.Services {
		cs := s
		cs.ServingRates = make(map[Resource]float64, len(s.ServingRates))
		for k, v := range s.ServingRates {
			cs.ServingRates[k] = v
		}
		if s.ImpactFactors != nil {
			cs.ImpactFactors = make(map[Resource]float64, len(s.ImpactFactors))
			for k, v := range s.ImpactFactors {
				cs.ImpactFactors[k] = v
			}
		}
		c.Services[i] = cs
	}
	c.Resources = append([]Resource(nil), m.Resources...)
	return &c
}

func sortedResources(m map[Resource]float64) []Resource {
	out := make([]Resource, 0, len(m))
	for r := range m {
		out = append(out, r)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}
