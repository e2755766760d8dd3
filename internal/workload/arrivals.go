// Package workload generates the request streams and service-demand
// profiles the paper's evaluation uses: Poisson arrival processes (the
// model's assumption 2), non-Poisson alternatives for robustness testing
// (the Paxson & Floyd critique the paper cites as [11]), and synthetic
// stand-ins for the SPECweb2005 e-commerce and TPC-W e-book benchmarks
// (Section IV-B).
package workload

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// ArrivalProcess produces successive inter-arrival times. Implementations
// may carry state (e.g. the MMPP phase), so each concurrent consumer must
// own its instance.
type ArrivalProcess interface {
	// Next draws the time until the next arrival.
	Next(s *stats.Stream) float64
	// Rate reports the long-run mean arrival rate.
	Rate() float64
	// String describes the process.
	String() string
}

// Cloner is implemented by stateful arrival processes that can produce a
// fresh, independent copy of themselves with the mutable state reset to the
// initial conditions. Replication engines clone the configured process for
// every replication so concurrent runs never share (or leak) phase state.
type Cloner interface {
	// CloneProcess returns an independent copy with pristine state.
	CloneProcess() ArrivalProcess
}

// Clone returns an independent instance of p safe to hand to a concurrent
// consumer: stateful processes (those implementing Cloner) are copied with
// reset state, stateless ones are returned as-is.
func Clone(p ArrivalProcess) ArrivalProcess {
	if c, ok := p.(Cloner); ok {
		return c.CloneProcess()
	}
	return p
}

// Poisson is the homogeneous Poisson process with the given rate —
// exponential inter-arrival times, the model's assumption for
// "user-initiated TCP sessions arriv[ing] at a WAN" [10][11].
type Poisson struct {
	Lambda float64
}

// NewPoisson validates and returns a Poisson process.
func NewPoisson(rate float64) *Poisson {
	if rate <= 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		panic(fmt.Sprintf("workload: Poisson rate must be positive and finite, got %v", rate))
	}
	return &Poisson{Lambda: rate}
}

func (p *Poisson) Next(s *stats.Stream) float64 { return s.ExpFloat64() / p.Lambda }
func (p *Poisson) Rate() float64                { return p.Lambda }
func (p *Poisson) String() string               { return fmt.Sprintf("Poisson(%g)", p.Lambda) }

// Renewal is a renewal process with arbitrary inter-arrival distribution —
// deterministic (perfectly paced load generators like httperf's fixed-rate
// mode), heavy-tailed Pareto, or anything else.
type Renewal struct {
	Inter stats.Distribution
}

func (r *Renewal) Next(s *stats.Stream) float64 { return r.Inter.Sample(s) }

func (r *Renewal) Rate() float64 {
	m := r.Inter.Mean()
	if m <= 0 || math.IsInf(m, 1) {
		return 0
	}
	return 1 / m
}

func (r *Renewal) String() string { return fmt.Sprintf("Renewal(%s)", r.Inter) }

// MMPP2 is a two-phase Markov-modulated Poisson process: arrivals are
// Poisson with rate Rate1 or Rate2 depending on a hidden phase that flips
// after exponential holding times. It produces the bursty, correlated
// traffic the Poisson assumption misses, letting the test suite quantify
// the model's sensitivity to assumption 2.
type MMPP2 struct {
	Rate1, Rate2 float64 // arrival rates in phases 1 and 2
	Hold1, Hold2 float64 // mean phase holding times

	phase2    bool
	remaining float64 // time left in the current phase
}

// NewMMPP2 validates parameters and returns a process starting in phase 1.
func NewMMPP2(rate1, rate2, hold1, hold2 float64) *MMPP2 {
	if rate1 < 0 || rate2 < 0 || hold1 <= 0 || hold2 <= 0 {
		panic("workload: invalid MMPP2 parameters")
	}
	if rate1 == 0 && rate2 == 0 {
		panic("workload: MMPP2 needs a positive rate in some phase")
	}
	return &MMPP2{Rate1: rate1, Rate2: rate2, Hold1: hold1, Hold2: hold2}
}

// Rate reports the stationary mean rate: phase probabilities are
// proportional to mean holding times.
func (m *MMPP2) Rate() float64 {
	return (m.Rate1*m.Hold1 + m.Rate2*m.Hold2) / (m.Hold1 + m.Hold2)
}

func (m *MMPP2) String() string {
	return fmt.Sprintf("MMPP2(r1=%g,r2=%g,h1=%g,h2=%g)", m.Rate1, m.Rate2, m.Hold1, m.Hold2)
}

// Next advances the phase process until an arrival occurs and returns the
// elapsed time.
func (m *MMPP2) Next(s *stats.Stream) float64 {
	elapsed := 0.0
	for {
		rate, hold := m.Rate1, m.Hold1
		if m.phase2 {
			rate, hold = m.Rate2, m.Hold2
		}
		if m.remaining <= 0 {
			m.remaining = s.ExpFloat64() * hold
		}
		if rate > 0 {
			gap := s.ExpFloat64() / rate
			if gap <= m.remaining {
				m.remaining -= gap
				return elapsed + gap
			}
		}
		// Phase expires before the next arrival.
		elapsed += m.remaining
		m.remaining = 0
		m.phase2 = !m.phase2
	}
}

// CloneProcess returns a copy starting afresh in phase 1.
func (m *MMPP2) CloneProcess() ArrivalProcess {
	return &MMPP2{Rate1: m.Rate1, Rate2: m.Rate2, Hold1: m.Hold1, Hold2: m.Hold2}
}

// OnOff is the special MMPP2 case with a silent phase — bursts of Poisson
// traffic separated by idle periods.
func OnOff(burstRate, meanBurst, meanIdle float64) *MMPP2 {
	return NewMMPP2(burstRate, 0, meanBurst, meanIdle)
}

// Superpose merges multiple arrival processes into one stream, which is
// what a consolidated pool sees: the superposition of every service's
// arrivals. (For Poisson inputs the result is exactly Poisson with the
// summed rate; for others it is only asymptotically Poisson — another
// robustness axis.)
type Superpose struct {
	procs   []ArrivalProcess
	pending []float64 // time until each component's next arrival
}

// NewSuperpose builds a superposition. It panics on an empty input.
func NewSuperpose(procs ...ArrivalProcess) *Superpose {
	if len(procs) == 0 {
		panic("workload: Superpose needs at least one process")
	}
	return &Superpose{procs: procs, pending: make([]float64, len(procs))}
}

func (sp *Superpose) Rate() float64 {
	sum := 0.0
	for _, p := range sp.procs {
		sum += p.Rate()
	}
	return sum
}

func (sp *Superpose) String() string { return fmt.Sprintf("Superpose(%d)", len(sp.procs)) }

// Next returns the time to the earliest pending arrival across components.
func (sp *Superpose) Next(s *stats.Stream) float64 {
	for i, p := range sp.procs {
		if sp.pending[i] <= 0 {
			sp.pending[i] = p.Next(s)
		}
		_ = p
	}
	// Find the minimum.
	minIdx := 0
	for i := 1; i < len(sp.pending); i++ {
		if sp.pending[i] < sp.pending[minIdx] {
			minIdx = i
		}
	}
	gap := sp.pending[minIdx]
	for i := range sp.pending {
		sp.pending[i] -= gap
	}
	return gap
}

// CloneProcess deep-copies the superposition: every stateful component is
// cloned and the pending arrival times are cleared.
func (sp *Superpose) CloneProcess() ArrivalProcess {
	procs := make([]ArrivalProcess, len(sp.procs))
	for i, p := range sp.procs {
		procs[i] = Clone(p)
	}
	return NewSuperpose(procs...)
}
