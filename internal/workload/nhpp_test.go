package workload

import (
	"math"
	"testing"

	"repro/internal/stats"
)

func TestNHPPConstantRateIsPoisson(t *testing.T) {
	p := NewNHPP([]float64{5}, 100, true)
	got := measureRate(p, 3000, 31)
	if stats.RelativeError(got, 5) > 0.03 {
		t.Fatalf("constant NHPP rate %.3f, want 5", got)
	}
	if p.Rate() != 5 {
		t.Fatal("rate metadata wrong")
	}
}

func TestNHPPPerBinRates(t *testing.T) {
	// Two alternating windows: rate 10 for 50 s, rate 2 for 50 s.
	p := NewNHPP([]float64{10, 2}, 50, true)
	s := stats.NewStream(33, "nhpp/bins")
	counts := [2]int{}
	clock := 0.0
	horizon := 20000.0
	for {
		clock += p.Next(s)
		if clock > horizon {
			break
		}
		if int(clock/50)%2 == 0 {
			counts[0]++
		} else {
			counts[1]++
		}
	}
	// Each phase covers half the horizon.
	r0 := float64(counts[0]) / (horizon / 2)
	r1 := float64(counts[1]) / (horizon / 2)
	if stats.RelativeError(r0, 10) > 0.05 {
		t.Fatalf("hot phase rate %.3f, want 10", r0)
	}
	if stats.RelativeError(r1, 2) > 0.1 {
		t.Fatalf("cold phase rate %.3f, want 2", r1)
	}
	if stats.RelativeError(p.Rate(), 6) > 1e-12 {
		t.Fatalf("mean rate %g", p.Rate())
	}
}

func TestNHPPZeroRateWindows(t *testing.T) {
	// Rate 4 then silence, cycling: arrivals only in even windows.
	p := NewNHPP([]float64{4, 0}, 10, true)
	s := stats.NewStream(35, "nhpp/zero")
	clock := 0.0
	for i := 0; i < 2000; i++ {
		clock += p.Next(s)
		window := int(clock/10) % 2
		if window != 0 {
			t.Fatalf("arrival at %.3f inside a silent window", clock)
		}
	}
}

func TestNHPPNonCyclingTailRate(t *testing.T) {
	// After the trace ends, the last rate holds.
	p := NewNHPP([]float64{100, 1}, 1, false)
	if p.Rate() != 1 {
		t.Fatalf("terminal rate %g", p.Rate())
	}
	s := stats.NewStream(37, "nhpp/tail")
	// Skip past the first two windows.
	clock := 0.0
	for clock < 2 {
		clock += p.Next(s)
	}
	n := 0
	start := clock
	for clock-start < 500 {
		clock += p.Next(s)
		n++
	}
	if stats.RelativeError(float64(n)/500, 1) > 0.15 {
		t.Fatalf("tail rate %.3f, want 1", float64(n)/500)
	}
}

func TestNHPPTerminalZeroRate(t *testing.T) {
	// Non-cycling trace ending at zero: Next returns an enormous gap
	// rather than hanging.
	p := NewNHPP([]float64{5, 0}, 1, false)
	s := stats.NewStream(39, "nhpp/dead")
	clock := 0.0
	for i := 0; i < 100 && clock < 1e9; i++ {
		clock += p.Next(s)
	}
	if clock < 1e9 {
		t.Fatal("terminal zero rate kept producing arrivals")
	}
}

// TestNHPPBoundaryClockMakesProgress pins the float-truncation stall:
// with a bin width that is not exactly representable (1/80 s here), a
// clock sitting exactly on a window edge used to make rateAt report
// windowEnd == clock, so Next's overshoot step never advanced — an
// infinite loop. The loadgen harness hit this within milliseconds of
// compressing a diurnal profile onto a sub-second run.
func TestNHPPBoundaryClockMakesProgress(t *testing.T) {
	const binSec = 0.0125
	// Find a boundary where the quotient rounds down across the integer.
	k := 0
	for i := 1; i < 1_000_000; i++ {
		edge := float64(i) * binSec
		if int(edge/binSec) < i {
			k = i
			break
		}
	}
	if k == 0 {
		t.Skip("no truncating boundary below 1e6 for this bin width")
	}
	p := NewNHPP([]float64{1e-9, 1e-9}, binSec, true)
	p.clock = float64(k) * binSec
	s := stats.NewStream(41, "nhpp/boundary")
	// The near-zero rate forces the overshoot path every window; without
	// the rateAt guard this loops forever instead of sweeping forward.
	if gap := p.Next(s); gap <= 0 {
		t.Fatalf("gap %g from boundary clock", gap)
	}
}

// TestNHPPCompressedBinsTerminate drives the loadgen configuration that
// exposed the stall end to end: a 24-bin profile squeezed into 0.3 s.
func TestNHPPCompressedBinsTerminate(t *testing.T) {
	rates := make([]float64, 24)
	for i := range rates {
		rates[i] = 30 + float64(i)
	}
	p := NewNHPP(rates, 0.3/24, true)
	s := stats.NewStream(43, "nhpp/compressed")
	clock := 0.0
	for i := 0; i < 50_000; i++ {
		gap := p.Next(s)
		if gap < 0 || math.IsNaN(gap) {
			t.Fatalf("gap %g at arrival %d", gap, i)
		}
		clock += gap
	}
	if clock <= 0 {
		t.Fatal("clock never advanced")
	}
}

func TestNHPPPanics(t *testing.T) {
	cases := []func(){
		func() { NewNHPP(nil, 1, false) },
		func() { NewNHPP([]float64{1}, 0, false) },
		func() { NewNHPP([]float64{-1}, 1, false) },
		func() { NewNHPP([]float64{math.NaN()}, 1, false) },
		func() { NewNHPP([]float64{0, 0}, 1, false) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestFromTrace(t *testing.T) {
	p := FromTrace([]float64{3, 6, 9}, 60, true)
	if stats.RelativeError(p.Rate(), 6) > 1e-12 {
		t.Fatalf("trace rate %g", p.Rate())
	}
	if p.String() == "" {
		t.Fatal("empty description")
	}
}
