// Package stats provides the numerical substrate for the consolidation
// library: deterministic random-number streams, the service-time and
// inter-arrival distributions used by the workload generators and queueing
// simulators, descriptive statistics with confidence intervals, and the
// least-squares fitting routines used to recover virtualization
// impact-factor curves (Section IV-C.1 of the paper).
//
// Everything here is pure Go standard library. All randomness flows through
// explicit *Stream values so that every simulation in the repository is
// reproducible from a single seed.
package stats

import (
	"hash/fnv"
	"math/rand/v2"
)

// Stream is a deterministic random-number stream. Independent components of
// a simulation (arrival process, service times, dispatcher, failure
// injection, ...) should each draw from their own named substream so that
// changing one component's consumption pattern does not perturb the others —
// the standard common-random-numbers discipline for simulation experiments.
type Stream struct {
	rng  *rand.Rand
	seed uint64
	name string
}

// NewStream returns a stream seeded with seed. The name is recorded for
// diagnostics and substream derivation.
func NewStream(seed uint64, name string) *Stream {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	mixed := splitmix64(seed ^ h.Sum64())
	return &Stream{
		rng:  rand.New(rand.NewPCG(mixed, splitmix64(mixed))),
		seed: seed,
		name: name,
	}
}

// Substream derives an independent stream from s keyed by name. Derivation
// is pure: the same (seed, path-of-names) always yields the same stream, and
// drawing from the substream does not advance s.
func (s *Stream) Substream(name string) *Stream {
	return NewStream(s.seed, s.name+"/"+name)
}

// Name reports the stream's derivation path.
func (s *Stream) Name() string { return s.name }

// Float64 returns a uniform variate in [0, 1).
func (s *Stream) Float64() float64 { return s.rng.Float64() }

// IntN returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Stream) IntN(n int) int { return s.rng.IntN(n) }

// Uint64 returns a uniform 64-bit value.
func (s *Stream) Uint64() uint64 { return s.rng.Uint64() }

// NormFloat64 returns a standard normal variate.
func (s *Stream) NormFloat64() float64 { return s.rng.NormFloat64() }

// ExpFloat64 returns a unit-mean exponential variate.
func (s *Stream) ExpFloat64() float64 { return s.rng.ExpFloat64() }

// Bernoulli returns true with probability p.
func (s *Stream) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.rng.Float64() < p
}

// splitmix64 is the SplitMix64 mixing function, used to decorrelate seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
