package scenario

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/diurnal"
)

func periodsBase() Scenario {
	return Scenario{
		Mode: "consolidated",
		Services: []Service{
			WebSpec(3976, 0),
			DBSpec(280, 0),
		},
		Fleet:   Fleet{Hosts: 4},
		Periods: &Periods{},
	}
}

// An empty periods block defaults to one day of the canonical 24-bin
// diurnal shape: hourly bins named positionally, multipliers sampled off
// diurnal.DayShape at each bin's start.
func TestPeriodsDefaults(t *testing.T) {
	s := periodsBase()
	s.ApplyDefaults()
	p := s.Periods
	if p.BinSec != 3600 {
		t.Fatalf("bin_sec = %g", p.BinSec)
	}
	day := diurnal.DayShape()
	if len(p.Bins) != len(day.Values) {
		t.Fatalf("bins = %d, want %d", len(p.Bins), len(day.Values))
	}
	if p.Bins[0].Name != "h00" || p.Bins[23].Name != "h23" {
		t.Fatalf("bin names %q … %q", p.Bins[0].Name, p.Bins[23].Name)
	}
	for i, b := range p.Bins {
		if b.Multiplier != day.Values[i] {
			t.Fatalf("bin %d multiplier %g, want day-shape %g", i, b.Multiplier, day.Values[i])
		}
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}

	// Coarser bins sample the same day at their start times: 4-hour bins
	// read hours 0, 4, 8, ….
	s = periodsBase()
	s.Periods = &Periods{BinSec: 4 * 3600}
	s.ApplyDefaults()
	if n := len(s.Periods.Bins); n != 6 {
		t.Fatalf("4h bins = %d, want 6", n)
	}
	for i, b := range s.Periods.Bins {
		if want := day.Values[4*i]; b.Multiplier != want {
			t.Fatalf("4h bin %d multiplier %g, want %g", i, b.Multiplier, want)
		}
	}
}

func TestPeriodsValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Scenario)
	}{
		{"bad bin_sec", func(s *Scenario) { s.Periods.BinSec = -1 }},
		{"infinite bin_sec", func(s *Scenario) { s.Periods.BinSec = math.Inf(1) }},
		{"zero multiplier", func(s *Scenario) {
			s.Periods.Bins = []PeriodBin{{Multiplier: -0.5}}
		}},
		{"both multiplier forms", func(s *Scenario) {
			s.Periods.Bins = []PeriodBin{{Multiplier: 1, Multipliers: []float64{1, 1}}}
		}},
		{"multipliers arity", func(s *Scenario) {
			s.Periods.Bins = []PeriodBin{{Multipliers: []float64{1}}}
		}},
		{"closed-loop service", func(s *Scenario) {
			s.Services[1].Arrivals = nil
			s.Services[1].Clients = 50
		}},
		{"bins over the cap", func(s *Scenario) { s.Periods.Bins = make([]PeriodBin, maxPeriodBins+1) }},
		{"bin_sec defaulting past the cap", func(s *Scenario) { s.Periods.BinSec = 86400.0 / (maxPeriodBins + 1) }},
	}
	for _, c := range cases {
		s := periodsBase()
		c.mutate(&s)
		if err := s.Validate(); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: err = %v, want ErrInvalid", c.name, err)
		}
	}
}

// The bin cap is checked before anything is sized by the bin count: a
// bin_sec of 1e-12 would ask defaulting for 8.64e16 bins, a list at the
// cap validates, and parsing, validating and resolving all refuse the
// count with an error that names the cap.
func TestPeriodsBinCap(t *testing.T) {
	for _, binSec := range []float64{1e-12, 1e-300, 86400.0 / (maxPeriodBins + 1)} {
		s := periodsBase()
		s.Periods.BinSec = binSec
		for name, err := range map[string]error{"Validate": s.Validate(), "Resolve": second(s.Resolve()), "ResolvePeriods": second(s.ResolvePeriods())} {
			if !errors.Is(err, ErrInvalid) || !strings.Contains(err.Error(), "288-bin cap") {
				t.Errorf("bin_sec %g: %s error %v, want the cap", binSec, name, err)
			}
		}
		if s.Periods.Bins != nil {
			t.Errorf("bin_sec %g: the caller's scenario gained %d bins", binSec, len(s.Periods.Bins))
		}
	}
	s := periodsBase()
	s.Periods.BinSec = 86400.0 / maxPeriodBins
	if err := s.Validate(); err != nil {
		t.Fatalf("a day of %d bins: %v", maxPeriodBins, err)
	}
	parsed, err := ParseBytes([]byte(`{"services": [{"profile": {"preset": "tpcw-ebook"}, "arrivals": {"kind": "poisson", "rate": 1}}], "periods": {"bin_sec": 1e-12}}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := parsed.Validate(); err == nil || !strings.Contains(err.Error(), "288-bin cap") {
		t.Fatalf("parsed bin_sec 1e-12: %v", err)
	}
}

func second[T any](_ T, err error) error { return err }

// ResolvePeriods lowers each bin to a stationary periods-free scenario
// whose Poisson rates are the base mean rates scaled by the bin's
// multiplier.
func TestResolvePeriods(t *testing.T) {
	s := periodsBase()
	s.Name = "day"
	s.Periods = &Periods{
		BinSec: 1800,
		Bins: []PeriodBin{
			{Name: "trough", Multiplier: 0.25},
			{Multipliers: []float64{2, 0.5}},
		},
	}
	bins, err := s.ResolvePeriods()
	if err != nil {
		t.Fatal(err)
	}
	if len(bins) != 2 {
		t.Fatalf("bins = %d", len(bins))
	}
	b0, b1 := bins[0], bins[1]
	if b0.Name != "trough" || b1.Name != "h01" {
		t.Fatalf("names %q, %q", b0.Name, b1.Name)
	}
	if b0.Seconds != 1800 || b1.Seconds != 1800 {
		t.Fatalf("seconds %g, %g", b0.Seconds, b1.Seconds)
	}
	if b0.Scenario.Periods != nil || b1.Scenario.Periods != nil {
		t.Fatal("sub-scenarios must be periods-free")
	}
	if b0.Scenario.Name != "day@trough" {
		t.Fatalf("sub-scenario name %q", b0.Scenario.Name)
	}
	check := func(b PeriodScenario, wantWeb, wantDB float64) {
		t.Helper()
		web, db := b.Scenario.Services[0].Arrivals, b.Scenario.Services[1].Arrivals
		if web.Kind != "poisson" || db.Kind != "poisson" {
			t.Fatalf("bin %s arrival kinds %q, %q", b.Name, web.Kind, db.Kind)
		}
		if web.Rate != wantWeb || db.Rate != wantDB {
			t.Fatalf("bin %s rates %g, %g, want %g, %g", b.Name, web.Rate, db.Rate, wantWeb, wantDB)
		}
	}
	check(b0, 3976*0.25, 280*0.25)
	check(b1, 3976*2, 280*0.5)

	// Every resolved bin validates and compiles on its own.
	for _, b := range bins {
		if _, err := b.Scenario.Compile(); err != nil {
			t.Fatalf("bin %s: %v", b.Name, err)
		}
	}

	// PeriodBins of the resolved scenario is the same resolution without
	// the sub-scenarios.
	resolved, err := s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	bare, err := resolved.PeriodBins()
	if err != nil {
		t.Fatal(err)
	}
	for i := range bins {
		if bins[i].Index != i || !reflect.DeepEqual(bare[i], bins[i].BinLoad) {
			t.Fatalf("PeriodBins bin %d = %+v, ResolvePeriods bin %+v", i, bare[i], bins[i])
		}
	}
	if want := []float64{0.25, 0.25}; !reflect.DeepEqual(bare[0].Multipliers, want) {
		t.Fatalf("bin 0 multipliers %v, want the scalar broadcast %v", bare[0].Multipliers, want)
	}

	// A periods-free scenario does not resolve.
	plain := periodsBase()
	plain.Periods = nil
	if _, err := plain.ResolvePeriods(); !errors.Is(err, ErrInvalid) {
		t.Fatalf("resolve without periods: err = %v", err)
	}
	if _, err := plain.PeriodBins(); !errors.Is(err, ErrInvalid) {
		t.Fatalf("bins without periods: err = %v", err)
	}
}

// The mean-rate contract: a non-Poisson base process contributes its
// cycle mean, so an NHPP service resolves to Poisson at mean × multiplier.
func TestResolvePeriodsUsesMeanRate(t *testing.T) {
	s := periodsBase()
	s.Services[0].Arrivals.Kind = "nhpp"
	s.Services[0].Arrivals.Rate = 0
	s.Services[0].Arrivals.Rates = []float64{100, 300}
	s.Services[0].Arrivals.BinSec = 10
	s.Services[0].Arrivals.Cycle = true
	s.Periods = &Periods{Bins: []PeriodBin{{Multiplier: 2}}}
	bins, err := s.ResolvePeriods()
	if err != nil {
		t.Fatal(err)
	}
	if got := bins[0].Scenario.Services[0].Arrivals.Rate; got != 400 {
		t.Fatalf("nhpp mean 200 × 2 resolved to %g", got)
	}
}

func TestStationaryRejectsBadMultipliers(t *testing.T) {
	s := periodsBase()
	if _, err := s.Stationary("x", []float64{1}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("arity: err = %v", err)
	}
	if _, err := s.Stationary("x", []float64{1, math.Inf(1)}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("infinite multiplier: err = %v", err)
	}
	if _, err := s.Stationary("x", []float64{1, 1e306}); err == nil {
		t.Fatal("a rate the multiplier overflows was accepted")
	}
}
