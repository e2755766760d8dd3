package queueing

import (
	"fmt"
	"math"

	"repro/internal/desim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// HeteroConfig describes a loss system whose servers have unequal rates —
// the queueing ground truth for the heterogeneous-server extension, which
// eval.Analytic approximates by a pool of fractional capability units
// scored with erlang.BContinuous (TestHeteroPooledApproximation bounds
// the gap). Requests that find no idle server are lost; an idle server is
// chosen by the configured policy.
type HeteroConfig struct {
	// Rates lists each server's service rate (relative or absolute; only
	// ratios to the arrival rate matter).
	Rates []float64

	// Arrivals generates the request stream.
	Arrivals workload.ArrivalProcess

	// FastestFirst selects the fastest idle server for each arrival (the
	// sensible dispatcher); false picks uniformly at random among idle
	// servers.
	FastestFirst bool

	// Horizon, Warmup, Seed as in Config.
	Horizon float64
	Warmup  float64
	Seed    uint64
}

// Validate checks the configuration.
func (c HeteroConfig) Validate() error {
	if len(c.Rates) == 0 {
		return fmt.Errorf("%w: no servers", ErrInvalidConfig)
	}
	for i, r := range c.Rates {
		if r <= 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			return fmt.Errorf("%w: server %d rate %g", ErrInvalidConfig, i, r)
		}
	}
	if c.Arrivals == nil {
		return fmt.Errorf("%w: nil arrivals", ErrInvalidConfig)
	}
	if c.Horizon <= 0 || math.IsNaN(c.Horizon) || math.IsInf(c.Horizon, 0) {
		return fmt.Errorf("%w: horizon %g", ErrInvalidConfig, c.Horizon)
	}
	if c.Warmup < 0 || c.Warmup >= c.Horizon {
		return fmt.Errorf("%w: warmup %g", ErrInvalidConfig, c.Warmup)
	}
	return nil
}

// HeteroResult summarizes a heterogeneous loss-system run.
type HeteroResult struct {
	Arrivals int64
	Served   int64
	Lost     int64
	LossProb float64
	LossCI   stats.CI

	// PerServerBusy is each server's busy fraction.
	PerServerBusy []float64

	// CapabilityUnits is Σ rateᵢ / max rate — the pool size in
	// fastest-server units, the quantity the continuous Erlang B
	// approximation consumes.
	CapabilityUnits float64
}

// SimulateHetero runs the heterogeneous loss system.
func SimulateHetero(cfg HeteroConfig) (*HeteroResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sim := desim.New()
	stream := stats.NewStream(cfg.Seed, "queueing/hetero")
	arrStream := stream.Substream("arrivals")
	svcStream := stream.Substream("service")
	pickStream := stream.Substream("pick")

	n := len(cfg.Rates)
	busy := make([]bool, n)
	busyAvg := make([]desim.TimeAverage, n)
	for i := range busyAvg {
		busyAvg[i].Set(0, 0)
	}
	res := &HeteroResult{}

	maxRate := 0.0
	for _, r := range cfg.Rates {
		if r > maxRate {
			maxRate = r
		}
	}
	for _, r := range cfg.Rates {
		res.CapabilityUnits += r / maxRate
	}

	pickServer := func() int {
		best := -1
		if cfg.FastestFirst {
			for i := 0; i < n; i++ {
				if !busy[i] && (best < 0 || cfg.Rates[i] > cfg.Rates[best]) {
					best = i
				}
			}
			return best
		}
		idle := make([]int, 0, n)
		for i := 0; i < n; i++ {
			if !busy[i] {
				idle = append(idle, i)
			}
		}
		if len(idle) == 0 {
			return -1
		}
		return idle[pickStream.IntN(len(idle))]
	}

	var arrive func()
	arrive = func() {
		now := sim.Now()
		if now >= cfg.Warmup {
			res.Arrivals++
		}
		if i := pickServer(); i >= 0 {
			busy[i] = true
			busyAvg[i].Set(now, 1)
			d := svcStream.ExpFloat64() / cfg.Rates[i]
			i := i
			sim.After(d, func() {
				if sim.Now() >= cfg.Warmup {
					res.Served++
				}
				busy[i] = false
				busyAvg[i].Set(sim.Now(), 0)
			})
		} else if now >= cfg.Warmup {
			res.Lost++
		}
		gap := cfg.Arrivals.Next(arrStream)
		if now+gap <= cfg.Horizon {
			sim.At(now+gap, arrive)
		}
	}
	first := cfg.Arrivals.Next(arrStream)
	if first <= cfg.Horizon {
		sim.At(first, arrive)
	}
	sim.Run(cfg.Horizon)

	for i := range busyAvg {
		busyAvg[i].Finish(cfg.Horizon)
		res.PerServerBusy = append(res.PerServerBusy, busyAvg[i].Average())
	}
	if res.Arrivals > 0 {
		res.LossProb = float64(res.Lost) / float64(res.Arrivals)
	}
	res.LossCI = stats.ProportionCI(res.Lost, res.Arrivals, 0.95)
	return res, nil
}
