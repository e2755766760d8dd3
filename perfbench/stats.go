package main

import (
	"math"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// percentile returns the nearest-rank p-quantile of xs (0 < p <= 1).
// It sorts a copy; xs is left as it is.
func percentile(xs []time.Duration, p float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := rankOf(p, len(s)) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank]
}

// rankOf is the nearest rank (1-based) of quantile p among n samples.
// The slack keeps 0.99*9000 from rounding up past 8910.
func rankOf(p float64, n int) int { return int(math.Ceil(p*float64(n) - 1e-9)) }

func medianDuration(xs []time.Duration) time.Duration { return percentile(xs, 0.5) }

// tail is the tail percentile a run reports.
type tail struct {
	p      float64 // quantile, e.g. 0.99
	label  string  // "99"
	beyond int     // samples above it
}

// tailPercentile picks the highest percentile of the ladder 50, 90, 99,
// 99.9, ... that leaves at least ten samples beyond it. Op counts are
// fixed per workload, so the percentile is too.
func tailPercentile(n int) tail {
	best := tail{p: 0.5, label: "50", beyond: n - rankOf(0.5, n)}
	for _, label := range []string{"90", "99", "99.9", "99.99", "99.999"} {
		pct, _ := strconv.ParseFloat(label, 64)
		p := pct / 100
		beyond := n - rankOf(p, n)
		if beyond < 10 {
			break
		}
		best = tail{p: p, label: label, beyond: beyond}
	}
	return best
}

// windowOps is the smallest window of consecutive ops the latency
// percentiles are taken over; with at least 100 ops a window's tail is p90
// or higher.
const windowOps = 100

// windowSummary is a run's latency, taken window by window.
type windowSummary struct {
	p50, tail time.Duration // medians over windows of each window's p50 and tail
	windows   int           // latency windows
	minWindow int           // ops in the smallest latency window
	pct       tail          // the tail percentile of the smallest latency window
}

// summarize splits the run's op latencies, in op order, into
// len(lat)/windowOps consecutive windows of near-equal size, so each holds
// at least windowOps ops and the tail percentile is fixed by the op count,
// and reports the medians over windows of each window's median and tail.
// A slow spell of the machine then moves only the windows it covers.
func summarize(lat []time.Duration) windowSummary {
	n := len(lat)
	k := max(1, n/windowOps)
	s := windowSummary{windows: k, minWindow: n / k}
	s.pct = tailPercentile(s.minWindow)
	p50s := make([]time.Duration, k)
	tails := make([]time.Duration, k)
	for w := 0; w < k; w++ {
		seg := lat[w*n/k : (w+1)*n/k]
		p50s[w] = percentile(seg, 0.5)
		tails[w] = percentile(seg, tailPercentile(len(seg)).p)
	}
	s.p50, s.tail = medianDuration(p50s), medianDuration(tails)
	return s
}

// median returns the nearest-rank median of xs; xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[rankOf(0.5, len(xs))-1]
}

// cpuTime reports this process's user+sys CPU time so far.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// rssPeakMB reports this process's peak resident set in MiB (Linux
// reports ru_maxrss in KiB).
func rssPeakMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Maxrss) / 1024, nil
}

// rounds is how many times a run sets its workload up from scratch.
// Each set-up is followed by a timed segment of the run's ops, so the
// set-ups are spread over the whole run and sample the same spells of
// machine speed as the ops. setup_s is the median set-up and ops_per_s
// the median over segments.
const rounds = 20

// runRounds runs ops ops in rounds segments, or in ops segments of one
// op if there are fewer. Each round times setup, then runs
// segment(lo, hi) — ops lo..hi-1 — with the wall and CPU clocks running,
// then calls teardown off the clock.
func runRounds(r *runResult, ops int, setup func() error, segment func(lo, hi int) error, teardown func() error) error {
	n := min(rounds, ops)
	for k := 0; k < n; k++ {
		start := time.Now()
		if err := setup(); err != nil {
			return err
		}
		r.setups = append(r.setups, time.Since(start))
		lo, hi := k*ops/n, (k+1)*ops/n
		phase, err := beginPhase()
		if err != nil {
			return err
		}
		if err := segment(lo, hi); err != nil {
			return err
		}
		if err := phase.end(r, hi-lo); err != nil {
			return err
		}
		if err := teardown(); err != nil {
			return err
		}
	}
	return nil
}

// timedPhase brackets one timed segment: wall clock and process CPU.
type timedPhase struct {
	start time.Time
	cpu0  time.Duration
}

func beginPhase() (timedPhase, error) {
	// Collect now, so garbage left by the set-up is not collected on the
	// segment's clock.
	runtime.GC()
	cpu0, err := cpuTime()
	return timedPhase{start: time.Now(), cpu0: cpu0}, err
}

// end adds the segment's wall and CPU time to r's and records its
// throughput over ops ops and the peak resident set so far.
func (t timedPhase) end(r *runResult, ops int) error {
	wall := time.Since(t.start)
	cpu1, err := cpuTime()
	if err != nil {
		return err
	}
	r.wall += wall
	r.cpu += cpu1 - t.cpu0
	r.segmentRates = append(r.segmentRates, float64(ops)/wall.Seconds())
	r.rssPeakMB, err = rssPeakMB()
	return err
}
