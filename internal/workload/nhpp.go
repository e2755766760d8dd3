package workload

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// NHPP is a non-homogeneous Poisson process with piecewise-constant rate —
// the trace-driven arrival source for diurnal workloads (Fig. 2's daily
// cycles feeding the simulators). Rates[i] applies for the i-th window of
// BinSec seconds; after the last bin the pattern repeats if Cycle is set,
// otherwise the last rate holds forever.
//
// Sampling is exact (piecewise-exponential, no thinning): within a
// constant-rate window the next gap is exponential; if it overshoots the
// window boundary the residual exponential restarts in the next window
// (memorylessness).
type NHPP struct {
	Rates  []float64
	BinSec float64
	Cycle  bool

	clock float64 // internal process time
}

// NewNHPP validates and returns the process.
func NewNHPP(rates []float64, binSec float64, cycle bool) *NHPP {
	if len(rates) == 0 {
		panic("workload: NHPP needs at least one rate")
	}
	if binSec <= 0 || math.IsNaN(binSec) {
		panic(fmt.Sprintf("workload: NHPP bin width %v", binSec))
	}
	positive := false
	for _, r := range rates {
		if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			panic(fmt.Sprintf("workload: NHPP rate %v", r))
		}
		if r > 0 {
			positive = true
		}
	}
	if !positive {
		panic("workload: NHPP needs a positive rate somewhere")
	}
	return &NHPP{Rates: append([]float64(nil), rates...), BinSec: binSec, Cycle: cycle}
}

// FromTrace builds an NHPP from a workload-intensity series (values are
// rates in requests/second).
func FromTrace(values []float64, binSec float64, cycle bool) *NHPP {
	return NewNHPP(values, binSec, cycle)
}

// CloneProcess returns a copy positioned at the start of the rate schedule.
func (p *NHPP) CloneProcess() ArrivalProcess {
	return NewNHPP(p.Rates, p.BinSec, p.Cycle)
}

// rateAt reports the rate in force at process time t.
func (p *NHPP) rateAt(t float64) (rate float64, windowEnd float64) {
	bin := int(t / p.BinSec)
	// Guard the bin boundary against float truncation: when t sits exactly
	// on a window edge but t/BinSec rounds just below the integer (BinSec
	// values like 1/80 are not exactly representable), the naive bin would
	// report windowEnd == t and Next's overshoot step could stall forever.
	// Always hand back a window that strictly contains t.
	for float64(bin+1)*p.BinSec <= t {
		bin++
	}
	n := len(p.Rates)
	idx := bin
	if idx >= n {
		if p.Cycle {
			idx = bin % n
		} else {
			idx = n - 1
			return p.Rates[idx], math.Inf(1)
		}
	}
	return p.Rates[idx], float64(bin+1) * p.BinSec
}

// Next advances the process to the next arrival and returns the elapsed
// time.
func (p *NHPP) Next(s *stats.Stream) float64 {
	start := p.clock
	for {
		rate, windowEnd := p.rateAt(p.clock)
		if rate <= 0 {
			// Idle window: jump to its end.
			if math.IsInf(windowEnd, 1) {
				// Terminal zero rate: no more arrivals, ever. Return a
				// huge gap so drivers run past any finite horizon.
				p.clock += 1e18
				return p.clock - start
			}
			p.clock = windowEnd
			continue
		}
		gap := s.ExpFloat64() / rate
		if p.clock+gap <= windowEnd {
			p.clock += gap
			return p.clock - start
		}
		// Overshoot: discard and restart at the boundary (memoryless).
		p.clock = windowEnd
	}
}

// Rate reports the long-run mean rate: the cycle average when cycling, the
// terminal rate otherwise.
func (p *NHPP) Rate() float64 {
	if p.Cycle {
		return stats.Mean(p.Rates)
	}
	return p.Rates[len(p.Rates)-1]
}

// String describes the process.
func (p *NHPP) String() string {
	return fmt.Sprintf("NHPP(bins=%d,bin=%gs,cycle=%t)", len(p.Rates), p.BinSec, p.Cycle)
}
