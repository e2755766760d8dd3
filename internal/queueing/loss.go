// Package queueing simulates the loss systems underlying the utility
// analytic model: G/G/n/n pure-loss pools (the Erlang B setting, where a
// request is lost iff all n servers are busy). It is the controlled
// laboratory for the
// "model vs. reality" experiments: by PASTA and Erlang insensitivity, an
// M/G/n/n simulation's loss probability must converge to the Erlang B
// formula regardless of the service-time distribution — and the test
// suite checks exactly that. The cluster simulator cannot stand in for
// it: cluster dispatches round-robin to processor-sharing hosts and loses
// a request only at a host's admission cap.
package queueing

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/desim"
	"repro/internal/replicate"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Config describes one simulated pool.
type Config struct {
	// Servers is the number of parallel servers (the paper's n).
	Servers int

	// Arrivals generates the request stream.
	Arrivals workload.ArrivalProcess

	// Service is the per-request service-time distribution on one server.
	Service stats.Distribution

	// Horizon is the simulated duration in seconds.
	Horizon float64

	// Warmup discards statistics before this time (transient removal).
	Warmup float64

	// Seed drives all randomness; identical configs with identical seeds
	// produce identical results.
	Seed uint64
}

// ErrInvalidConfig reports an unusable simulation configuration.
var ErrInvalidConfig = errors.New("queueing: invalid config")

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Servers <= 0 {
		return fmt.Errorf("%w: servers=%d", ErrInvalidConfig, c.Servers)
	}
	if c.Arrivals == nil || c.Service == nil {
		return fmt.Errorf("%w: nil arrivals or service", ErrInvalidConfig)
	}
	if c.Horizon <= 0 || math.IsNaN(c.Horizon) || math.IsInf(c.Horizon, 0) {
		return fmt.Errorf("%w: horizon=%g", ErrInvalidConfig, c.Horizon)
	}
	if c.Warmup < 0 || c.Warmup >= c.Horizon {
		return fmt.Errorf("%w: warmup=%g with horizon=%g", ErrInvalidConfig, c.Warmup, c.Horizon)
	}
	return nil
}

// Result summarizes one run. Counters cover the post-warmup window only.
type Result struct {
	Arrivals int64
	Served   int64
	Lost     int64

	// LossProb is Lost/Arrivals — the paper's "loss probability calculated
	// by requests" B.
	LossProb float64

	// LossCI is a 95 % Wald interval on LossProb.
	LossCI stats.CI

	// TimeBlocked is the fraction of (post-warmup) time all servers were
	// busy — the paper's "loss probability calculated by time" p_n. PASTA
	// makes it equal LossProb in distribution for Poisson arrivals.
	TimeBlocked float64

	// MeanBusy is the time-average number of busy servers (carried
	// traffic).
	MeanBusy float64

	// Utilization is MeanBusy / Servers.
	Utilization float64

	// Throughput is Served divided by the observation window.
	Throughput float64

	// Window is the post-warmup observation duration.
	Window float64
}

// Simulate runs the pool to its horizon and returns the summary.
func Simulate(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sim := desim.New()
	stream := stats.NewStream(cfg.Seed, "queueing")
	arrStream := stream.Substream("arrivals")
	svcStream := stream.Substream("service")

	var (
		busy       int
		res        Result
		busyAvg    desim.TimeAverage
		blockedAvg desim.TimeAverage
	)
	record := func() {
		now := sim.Now()
		if now < cfg.Warmup {
			now = cfg.Warmup
		}
		busyAvg.Set(now, float64(busy))
		blocked := 0.0
		if busy == cfg.Servers {
			blocked = 1
		}
		blockedAvg.Set(now, blocked)
	}

	var arrive func()
	arrive = func() {
		now := sim.Now()
		if now >= cfg.Warmup {
			res.Arrivals++
		}
		if busy < cfg.Servers {
			busy++
			sim.After(cfg.Service.Sample(svcStream), func() {
				if sim.Now() >= cfg.Warmup {
					res.Served++
				}
				busy--
				record()
			})
			record()
		} else if now >= cfg.Warmup {
			res.Lost++
		}
		gap := cfg.Arrivals.Next(arrStream)
		next := now + gap
		if next <= cfg.Horizon {
			sim.At(next, arrive)
		}
	}

	// Prime statistics at the warmup boundary and start the arrival stream.
	sim.At(cfg.Warmup, record)
	firstGap := cfg.Arrivals.Next(arrStream)
	if firstGap <= cfg.Horizon {
		sim.At(firstGap, arrive)
	}
	sim.Run(cfg.Horizon)

	busyAvg.Finish(cfg.Horizon)
	blockedAvg.Finish(cfg.Horizon)

	res.Window = cfg.Horizon - cfg.Warmup
	if res.Arrivals > 0 {
		res.LossProb = float64(res.Lost) / float64(res.Arrivals)
	}
	res.LossCI = stats.ProportionCI(res.Lost, res.Arrivals, 0.95)
	if v := busyAvg.Average(); !math.IsNaN(v) {
		res.MeanBusy = v
	}
	res.Utilization = res.MeanBusy / float64(cfg.Servers)
	if v := blockedAvg.Average(); !math.IsNaN(v) {
		res.TimeBlocked = v
	}
	if res.Window > 0 {
		res.Throughput = float64(res.Served) / res.Window
	}
	return &res, nil
}

// ReplicationSet is the outcome of a replication study over Simulate.
type ReplicationSet struct {
	// Results holds one full Result per completed replication, in
	// replication order.
	Results []*Result

	// Losses is the per-replication loss probability.
	Losses []float64

	// LossCI is the Student-t confidence interval over Losses.
	LossCI stats.CI

	// EarlyStopped reports whether the precision target was reached before
	// all requested replications ran.
	EarlyStopped bool
}

// RunReplications runs independent replications of cfg through the parallel
// replication engine: replication r uses seed cfg.Seed+r (rcfg.Seed is
// ignored), results merge in replication order so the outcome is identical
// for any worker count, and rcfg.Precision > 0 enables CI-driven early
// stopping on the loss probability. Stateful arrival processes are cloned
// per replication, so concurrent runs never share phase state.
func RunReplications(ctx context.Context, cfg Config, rcfg replicate.Config) (*ReplicationSet, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if rcfg.Replications <= 0 {
		return nil, fmt.Errorf("%w: replications=%d", ErrInvalidConfig, rcfg.Replications)
	}
	rcfg.Seed = cfg.Seed
	eng, err := replicate.Run(ctx, rcfg,
		func(_ int, seed uint64) (*Result, error) {
			c := cfg
			c.Seed = seed
			c.Arrivals = workload.Clone(cfg.Arrivals)
			return Simulate(c)
		},
		func(res *Result) float64 { return res.LossProb })
	if eng == nil {
		return nil, err
	}
	set := &ReplicationSet{
		Results:      eng.Outputs,
		Losses:       eng.Metrics,
		LossCI:       eng.CI,
		EarlyStopped: eng.EarlyStopped,
	}
	return set, err
}
