package core

import (
	"math"
	"math/rand"
	"testing"
)

// mapTraffic is ConsolidatedTraffic as it read the model's maps before
// MergedTraffic took flat inputs, kept as the oracle the shared Eq. (5)
// function must match bit for bit.
func mapTraffic(m *Model, j Resource, form TrafficForm) float64 {
	switch form {
	case TrafficEq5Verbatim:
		lambda := 0.0
		denom := 0.0
		for _, s := range m.Services {
			lambda += s.ArrivalRate
			mu := s.servingRate(j)
			if math.IsInf(mu, 1) {
				return 0
			}
			denom += s.ArrivalRate * mu * s.impactFactor(j)
		}
		if denom == 0 {
			return 0
		}
		return lambda * lambda / denom
	case TrafficEq5Restricted:
		lambda := 0.0
		denom := 0.0
		for _, s := range m.Services {
			mu := s.servingRate(j)
			if math.IsInf(mu, 1) {
				continue
			}
			lambda += s.ArrivalRate
			denom += s.ArrivalRate * mu * s.impactFactor(j)
		}
		if denom == 0 {
			return 0
		}
		return lambda * lambda / denom
	default:
		sum := 0.0
		for _, s := range m.Services {
			mu := s.servingRate(j)
			if math.IsInf(mu, 1) {
				continue
			}
			sum += s.ArrivalRate / (mu * s.impactFactor(j))
		}
		return sum
	}
}

// MergedTraffic, which Model.ConsolidatedTraffic and internal/eval's
// kernel both call, gives what the map-based loop gave, bit for bit,
// under all three forms: on the case study, with a serving rate set to
// +Inf and one left out, on a resource no service demands, where every
// λᵢ·μᵢⱼ·aᵢⱼ underflows to a zero denominator, and on seeded random
// models whose impact factors and serving rates are sometimes unset.
func TestMergedTrafficMatchesMapLoop(t *testing.T) {
	inf := webService(1000)
	inf.Name = "inf"
	inf.ServingRates[CPU] = math.Inf(1)
	tiny := Service{Name: "tiny", ArrivalRate: 1e-200,
		ServingRates:  map[Resource]float64{CPU: 1e-200, DiskIO: 3},
		ImpactFactors: map[Resource]float64{CPU: 0.5}}
	models := []*Model{
		caseStudyModel(1000, 100, 0.05),
		{Services: []Service{inf, dbService(100)}},
		{Services: []Service{dbService(100), inf}},
		{Services: []Service{tiny}},
		{Services: []Service{tiny, tiny}},
	}
	rng := rand.New(rand.NewSource(1))
	for range 200 {
		m := &Model{}
		for i := range 1 + rng.Intn(4) {
			s := Service{Name: string(rune('a' + i)), ArrivalRate: math.Exp(rng.NormFloat64() * 3),
				ServingRates: map[Resource]float64{}, ImpactFactors: map[Resource]float64{}}
			for _, j := range []Resource{CPU, DiskIO, Memory} {
				switch rng.Intn(4) {
				case 0: // no demand: the rate is absent
				case 1:
					s.ServingRates[j] = math.Inf(1)
				default:
					s.ServingRates[j] = math.Exp(rng.NormFloat64() * 4)
				}
				if rng.Intn(2) == 0 {
					s.ImpactFactors[j] = rng.Float64()
				}
			}
			m.Services = append(m.Services, s)
		}
		models = append(models, m)
	}
	zero := 0
	for mi, m := range models {
		for _, j := range []Resource{CPU, DiskIO, Memory, Network} {
			for _, form := range []TrafficForm{TrafficEq5Verbatim, TrafficEq5Restricted, TrafficHarmonic} {
				want := mapTraffic(m, j, form)
				if got := m.ConsolidatedTraffic(j, form); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("model %d %s %v: MergedTraffic %v, map loop %v", mi, j, form, got, want)
				}
				if want == 0 {
					zero++
				}
			}
		}
	}
	if zero == 0 {
		t.Fatal("no case reached a zero traffic")
	}
	// The underflowing model's zero denominator, checked by name.
	for _, form := range []TrafficForm{TrafficEq5Verbatim, TrafficEq5Restricted} {
		if got := models[3].ConsolidatedTraffic(CPU, form); got != 0 {
			t.Errorf("%v: zero denominator gives %v, want 0", form, got)
		}
	}
}
