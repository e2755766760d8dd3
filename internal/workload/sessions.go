package workload

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// Sessions models SPECweb2005-style user sessions — the unit of Fig. 9(b)'s
// x-axis. Sessions arrive as a Poisson process; each session then issues a
// geometrically distributed number of requests separated by think gaps.
// The superposed request stream is burstier than Poisson at the same mean
// rate (requests cluster within sessions), which is exactly the structure
// the paper's Poisson assumption washes out.
type Sessions struct {
	// SessionRate is the session arrival rate (sessions/s).
	SessionRate float64
	// MeanRequests is the mean number of requests per session (geometric
	// with success probability 1/MeanRequests), >= 1.
	MeanRequests float64
	// Gap is the think-gap distribution between a session's consecutive
	// requests; nil means exponential with mean 1 s.
	Gap stats.Distribution

	pending sessionHeap // scheduled future request times (relative clock)
	clock   float64
	nextArr float64 // next session arrival time, 0 = not yet drawn
}

// NewSessions validates and returns the process.
func NewSessions(sessionRate, meanRequests float64, gap stats.Distribution) *Sessions {
	if sessionRate <= 0 || math.IsNaN(sessionRate) || math.IsInf(sessionRate, 0) {
		panic(fmt.Sprintf("workload: session rate %v", sessionRate))
	}
	if meanRequests < 1 || math.IsNaN(meanRequests) || math.IsInf(meanRequests, 0) {
		panic(fmt.Sprintf("workload: mean requests/session %v", meanRequests))
	}
	return &Sessions{SessionRate: sessionRate, MeanRequests: meanRequests, Gap: gap}
}

// Rate reports the long-run mean request rate: sessions/s × requests/session.
func (p *Sessions) Rate() float64 { return p.SessionRate * p.MeanRequests }

func (p *Sessions) String() string {
	return fmt.Sprintf("Sessions(rate=%g,req=%g)", p.SessionRate, p.MeanRequests)
}

// CloneProcess returns a copy with no pending sessions and a reset clock.
func (p *Sessions) CloneProcess() ArrivalProcess {
	return NewSessions(p.SessionRate, p.MeanRequests, p.Gap)
}

// sessionHeap is a min-heap of absolute request times. push and pop
// swap elements exactly as container/heap's Push and Pop do, without
// boxing each time through an interface.
type sessionHeap []float64

func (h *sessionHeap) push(t float64) {
	*h = append(*h, t)
	q := *h
	for j := len(q) - 1; j > 0; {
		i := (j - 1) / 2
		if !(q[j] < q[i]) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func (h *sessionHeap) pop() float64 {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && q[j2] < q[j] {
			j = j2
		}
		if !(q[j] < q[i]) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	*h = q[:n]
	return q[n]
}

// gapSample draws one think gap.
func (p *Sessions) gapSample(s *stats.Stream) float64 {
	if p.Gap != nil {
		return p.Gap.Sample(s)
	}
	return s.ExpFloat64() // mean 1 s
}

// spawnSession schedules all requests of a session starting at time t.
// The first request fires at the session start; each subsequent request
// follows with probability 1−1/MeanRequests after a think gap.
func (p *Sessions) spawnSession(t float64, s *stats.Stream) {
	p.pending.push(t)
	if p.MeanRequests == 1 {
		return
	}
	cont := 1 - 1/p.MeanRequests
	for s.Bernoulli(cont) {
		t += p.gapSample(s)
		p.pending.push(t)
	}
}

// Next advances to the next request arrival (from any active session) and
// returns the elapsed time.
func (p *Sessions) Next(s *stats.Stream) float64 {
	start := p.clock
	for {
		if p.nextArr == 0 {
			p.nextArr = p.clock + s.ExpFloat64()/p.SessionRate
		}
		// Materialize session arrivals that precede the earliest pending
		// request.
		for len(p.pending) == 0 || p.nextArr <= p.pending[0] {
			p.spawnSession(p.nextArr, s)
			p.nextArr += s.ExpFloat64() / p.SessionRate
		}
		t := p.pending.pop()
		if t < p.clock {
			// A think gap landed in the past relative to an earlier pop —
			// clamp (requests within a session are unordered in principle
			// but the stream must be monotone).
			t = p.clock
		}
		p.clock = t
		return p.clock - start
	}
}
