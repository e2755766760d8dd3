package workload

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

// measureRate counts arrivals of p over a long horizon.
func measureRate(p ArrivalProcess, horizon float64, seed uint64) float64 {
	s := stats.NewStream(seed, "arrivals/"+p.String())
	t := 0.0
	n := 0
	for {
		t += p.Next(s)
		if t > horizon {
			break
		}
		n++
	}
	return float64(n) / horizon
}

func TestPoissonRate(t *testing.T) {
	p := NewPoisson(50)
	got := measureRate(p, 2000, 1)
	if stats.RelativeError(got, 50) > 0.02 {
		t.Fatalf("measured rate %g, want 50", got)
	}
	if p.Rate() != 50 || p.String() == "" {
		t.Fatal("metadata wrong")
	}
}

func TestPoissonPanics(t *testing.T) {
	for _, r := range []float64{0, -1, math.Inf(1), math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewPoisson(%v) did not panic", r)
				}
			}()
			NewPoisson(r)
		}()
	}
}

func TestPoissonInterarrivalVariability(t *testing.T) {
	// Poisson inter-arrivals have SCV 1.
	p := NewPoisson(10)
	s := stats.NewStream(3, "scv")
	var acc stats.Accumulator
	for i := 0; i < 100000; i++ {
		acc.Add(p.Next(s))
	}
	scv := acc.Variance() / (acc.Mean() * acc.Mean())
	if math.Abs(scv-1) > 0.05 {
		t.Fatalf("SCV = %g", scv)
	}
}

func TestRenewalDeterministic(t *testing.T) {
	r := &Renewal{Inter: stats.Deterministic{Value: 0.1}}
	if r.Rate() != 10 {
		t.Fatalf("rate = %g", r.Rate())
	}
	got := measureRate(r, 100, 2)
	if stats.RelativeError(got, 10) > 0.02 {
		t.Fatalf("measured %g", got)
	}
}

func TestRenewalParetoHeavyTail(t *testing.T) {
	r := &Renewal{Inter: stats.ParetoWithMean(0.1, 2.5)}
	if stats.RelativeError(r.Rate(), 10) > 1e-9 {
		t.Fatalf("rate = %g", r.Rate())
	}
	got := measureRate(r, 5000, 4)
	if stats.RelativeError(got, 10) > 0.1 {
		t.Fatalf("measured %g, want ~10", got)
	}
}

func TestRenewalInfiniteMeanRate(t *testing.T) {
	r := &Renewal{Inter: stats.Pareto{Xm: 1, Alpha: 0.5}} // infinite mean
	if r.Rate() != 0 {
		t.Fatalf("rate should degrade to 0, got %g", r.Rate())
	}
}

func TestMMPP2StationaryRate(t *testing.T) {
	m := NewMMPP2(100, 10, 1, 3)
	want := (100*1 + 10*3) / 4.0 // 32.5
	if stats.RelativeError(m.Rate(), want) > 1e-12 {
		t.Fatalf("analytic rate = %g", m.Rate())
	}
	got := measureRate(m, 3000, 5)
	if stats.RelativeError(got, want) > 0.05 {
		t.Fatalf("measured %g, want %g", got, want)
	}
}

func TestMMPP2Burstiness(t *testing.T) {
	// MMPP arrivals must be burstier than Poisson at the same mean rate:
	// the variance of counts in windows exceeds the mean count.
	m := NewMMPP2(200, 2, 0.5, 0.5)
	s := stats.NewStream(7, "bursty")
	window := 1.0
	var counts []float64
	t0, c := 0.0, 0.0
	now := 0.0
	for now < 2000 {
		gap := m.Next(s)
		now += gap
		for now-t0 > window {
			counts = append(counts, c)
			c = 0
			t0 += window
		}
		c++
	}
	mean := stats.Mean(counts)
	varc := stats.Variance(counts)
	if varc < 1.5*mean {
		t.Fatalf("MMPP not bursty: var=%g mean=%g", varc, mean)
	}
}

func TestMMPP2Panics(t *testing.T) {
	cases := [][4]float64{
		{-1, 1, 1, 1},
		{1, -1, 1, 1},
		{1, 1, 0, 1},
		{1, 1, 1, 0},
		{0, 0, 1, 1},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewMMPP2(%v) did not panic", c)
				}
			}()
			NewMMPP2(c[0], c[1], c[2], c[3])
		}()
	}
}

func TestOnOff(t *testing.T) {
	p := OnOff(100, 1, 4)
	want := 100.0 * 1 / 5
	if stats.RelativeError(p.Rate(), want) > 1e-12 {
		t.Fatalf("rate = %g", p.Rate())
	}
	got := measureRate(p, 3000, 9)
	if stats.RelativeError(got, want) > 0.07 {
		t.Fatalf("measured %g, want %g", got, want)
	}
}

func TestSuperposeRateAndSources(t *testing.T) {
	sp := NewSuperpose(NewPoisson(30), NewPoisson(10))
	if sp.Rate() != 40 {
		t.Fatalf("rate = %g", sp.Rate())
	}
	s := stats.NewStream(11, "superpose")
	counts := [2]int{}
	now := 0.0
	for now < 1000 {
		now += sp.Next(s)
		counts[sp.SourceOf()]++
	}
	total := counts[0] + counts[1]
	if stats.RelativeError(float64(total)/1000, 40) > 0.05 {
		t.Fatalf("total rate %g", float64(total)/1000)
	}
	frac := float64(counts[0]) / float64(total)
	if math.Abs(frac-0.75) > 0.03 {
		t.Fatalf("source split %g, want 0.75", frac)
	}
}

func TestSuperposePanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty superpose accepted")
		}
	}()
	NewSuperpose()
}

func TestProfileServingRates(t *testing.T) {
	web := SPECwebEcommerce()
	if err := web.Validate(); err != nil {
		t.Fatal(err)
	}
	if stats.RelativeError(web.ServingRate(DiskIO), WebDiskRate) > 1e-9 {
		t.Fatalf("web disk rate = %g", web.ServingRate(DiskIO))
	}
	if stats.RelativeError(web.ServingRate(CPU), WebCPURate) > 1e-9 {
		t.Fatalf("web cpu rate = %g", web.ServingRate(CPU))
	}
	if !math.IsInf(web.ServingRate("memory"), 1) {
		t.Fatal("untouched resource should have infinite rate")
	}
	r, rate := web.BottleneckResource()
	if r != DiskIO || stats.RelativeError(rate, WebDiskRate) > 1e-9 {
		t.Fatalf("bottleneck = %s/%g", r, rate)
	}
}

func TestTPCWProfile(t *testing.T) {
	db := TPCWEbook()
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
	if db.OSCeiling != DBCPURate {
		t.Fatalf("OS ceiling = %g", db.OSCeiling)
	}
	if stats.RelativeError(db.ServingRate(CPU), DBHardwareCPURate) > 1e-9 {
		t.Fatalf("hardware rate = %g", db.ServingRate(CPU))
	}
	// The effective single-OS rate min(hardware, ceiling) equals μ_dc.
	eff := math.Min(db.ServingRate(CPU), db.OSCeiling)
	if eff != DBCPURate {
		t.Fatalf("effective native rate = %g", eff)
	}
}

func TestProfileValidateErrors(t *testing.T) {
	bad := ServiceProfile{}
	if bad.Validate() == nil {
		t.Fatal("empty profile accepted")
	}
	bad = ServiceProfile{Name: "x"}
	if bad.Validate() == nil {
		t.Fatal("no-demand profile accepted")
	}
	bad = ServiceProfile{Name: "x", Demands: map[string]stats.Distribution{CPU: nil}}
	if bad.Validate() == nil {
		t.Fatal("nil demand accepted")
	}
	bad = SPECwebCPUBound()
	bad.OSCeiling = -1
	if bad.Validate() == nil {
		t.Fatal("negative ceiling accepted")
	}
}

func TestWithDemandSCV(t *testing.T) {
	web := SPECwebEcommerce()
	for _, scv := range []float64{0, 0.25, 0.5, 1, 4} {
		p := web.WithDemandSCV(scv)
		// Means must be preserved exactly.
		for r, d := range p.Demands {
			want := web.Demands[r].Mean()
			if stats.RelativeError(d.Mean(), want) > 1e-9 {
				t.Fatalf("scv=%g resource %s mean %g, want %g", scv, r, d.Mean(), want)
			}
		}
		// SCV must be (approximately) honored.
		d := p.Demands[CPU]
		got := stats.SCV(d)
		switch {
		case scv == 0:
			if got != 0 {
				t.Fatalf("SCV = %g, want 0", got)
			}
		case scv >= 1:
			if stats.RelativeError(got, scv) > 1e-9 {
				t.Fatalf("SCV = %g, want %g", got, scv)
			}
		default:
			// Erlang-k approximates: 1/k for k=round(1/scv).
			if got <= 0 || got >= 1 {
				t.Fatalf("SCV = %g, want in (0,1)", got)
			}
		}
	}
}

func TestWithDemandSCVPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative SCV accepted")
		}
	}()
	SPECwebEcommerce().WithDemandSCV(-1)
}

// Property: superposition rate equals the sum of component rates, and
// arrivals are non-negative.
func TestSuperposeProperty(t *testing.T) {
	f := func(r1, r2 uint8) bool {
		rate1 := float64(r1%50) + 1
		rate2 := float64(r2%50) + 1
		sp := NewSuperpose(NewPoisson(rate1), NewPoisson(rate2))
		if math.Abs(sp.Rate()-(rate1+rate2)) > 1e-9 {
			return false
		}
		s := stats.NewStream(uint64(r1)<<8|uint64(r2), "prop")
		for i := 0; i < 50; i++ {
			if sp.Next(s) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMMPPInterarrivalCorrelation(t *testing.T) {
	// Counts per window of an MMPP are positively autocorrelated (phases
	// persist across windows); Poisson counts are not.
	countSeries := func(p ArrivalProcess, seed uint64) []float64 {
		s := stats.NewStream(seed, "accounts")
		const window, horizon = 1.0, 4000.0
		counts := make([]float64, int(horizon/window))
		clock := 0.0
		for {
			clock += p.Next(s)
			if clock >= horizon {
				break
			}
			counts[int(clock/window)]++
		}
		return counts
	}
	mmpp := countSeries(NewMMPP2(40, 2, 5, 5), 51)
	poisson := countSeries(NewPoisson(21), 52)
	acM := stats.Autocorrelation(mmpp, 1)
	acP := stats.Autocorrelation(poisson, 1)
	if acM < 0.3 {
		t.Fatalf("MMPP lag-1 count autocorrelation %.3f, want strongly positive", acM)
	}
	if math.Abs(acP) > 0.1 {
		t.Fatalf("Poisson lag-1 count autocorrelation %.3f, want ~0", acP)
	}
}
