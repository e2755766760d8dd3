// Package power models server power draw and emulates the electric
// parameter tester the paper uses to meter its testbed (Section IV-C.2,
// Figs. 12–13).
//
// The underlying model is the paper's Section III-B.3 linear form (from
// ref. [1]): a server draws Base watts idle and Max watts at full
// utilization, interpolating linearly. On top of that, the package applies
// the two platform effects the paper measures but cannot explain:
//
//   - an idle Xen host draws ~9 % less than an idle native-Linux host, and
//   - the same workload hosted on consolidated Xen servers consumes ~30 %
//     less active (above-idle) energy than on dedicated Linux servers.
//
// Both are applied as multiplicative platform factors so experiments can
// reproduce Fig. 12/13's decomposition into idle power and workload power.
package power

import (
	"errors"
	"fmt"
	"math"
)

// Platform identifies the software stack on a host, which shifts its power
// profile per the paper's measurements.
type Platform int

const (
	// NativeLinux is the dedicated-server baseline platform.
	NativeLinux Platform = iota
	// XenRainbow is the consolidated platform (Xen + the Rainbow
	// resource-flowing runtime).
	XenRainbow
)

func (p Platform) String() string {
	if p == NativeLinux {
		return "linux"
	}
	return "xen"
}

// Platform factors reconstructed from Section IV-C.2 / V: "the power
// consumed by the idle Xen platform is 9% less than that consumed by the
// same number of idle Linux platform" and "the power consumed by the same
// workloads hosted on consolidated Xen-based servers is 30% less than that
// hosted on dedicated Linux servers".
const (
	XenIdleFactor   = 0.91
	XenActiveFactor = 0.70
)

// ServerModel is the per-server linear power model.
type ServerModel struct {
	Base float64 // S_base: idle draw, watts
	Max  float64 // S_max: full-utilization draw, watts
}

// DefaultServer is the reconstructed case-study server (DESIGN.md §2),
// which core.DefaultPower names for the analytic model.
var DefaultServer = ServerModel{Base: 250, Max: 340}

// ErrInvalidModel reports invalid power-model parameters.
var ErrInvalidModel = errors.New("power: invalid model")

// Validate checks the server model.
func (m ServerModel) Validate() error {
	if m.Base < 0 || m.Max < m.Base || math.IsNaN(m.Base) || math.IsNaN(m.Max) ||
		math.IsInf(m.Base, 0) || math.IsInf(m.Max, 0) {
		return fmt.Errorf("%w: base=%g max=%g", ErrInvalidModel, m.Base, m.Max)
	}
	return nil
}

// Draw reports the instantaneous draw in watts of one server at utilization
// u (clamped to [0, 1]) on the given platform.
func (m ServerModel) Draw(u float64, p Platform) float64 {
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	idle := m.Base
	active := (m.Max - m.Base) * u
	if p == XenRainbow {
		idle *= XenIdleFactor
		active *= XenActiveFactor
	}
	return idle + active
}

// IdleDraw reports the idle draw of one server on the given platform.
func (m ServerModel) IdleDraw(p Platform) float64 { return m.Draw(0, p) }

// Meter integrates energy over time for a group of servers, emulating the
// paper's electric parameter tester "which measures the power consumed by
// one or more servers switching in it". Feed it utilization observations
// with Observe; read totals with Energy and IdleEnergy.
type Meter struct {
	model    ServerModel
	platform Platform

	totalJoules float64
	idleJoules  float64 // what the same servers would have drawn idle
}

// NewMeter builds a meter for servers with the given model and platform.
func NewMeter(model ServerModel, platform Platform) (*Meter, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	return &Meter{model: model, platform: platform}, nil
}

// Observe records that, for dt seconds, the metered group consisted of
// len(utilizations) powered-on servers with the given per-server
// utilizations. It returns an error for negative dt or out-of-range inputs
// (utilizations are clamped like Draw).
func (m *Meter) Observe(dt float64, utilizations []float64) error {
	if dt < 0 || math.IsNaN(dt) {
		return fmt.Errorf("%w: negative interval %g", ErrInvalidModel, dt)
	}
	if dt == 0 {
		return nil
	}
	watts := 0.0
	for _, u := range utilizations {
		watts += m.model.Draw(u, m.platform)
	}
	m.totalJoules += watts * dt
	m.idleJoules += m.model.IdleDraw(m.platform) * float64(len(utilizations)) * dt
	return nil
}

// Energy reports total energy observed, in joules.
func (m *Meter) Energy() float64 { return m.totalJoules }

// IdleEnergy reports the energy the same powered-on servers would have
// consumed idle — the quantity the paper subtracts to isolate "the power
// consumed by the service workloads" (Fig. 13).
func (m *Meter) IdleEnergy() float64 { return m.idleJoules }

// Comparison captures the paper's Fig. 12/13 power comparison between a
// dedicated deployment and a consolidated one.
type Comparison struct {
	DedicatedTotal    float64 // joules (or watts if built from draws)
	ConsolidatedTotal float64
	DedicatedIdle     float64
	ConsolidatedIdle  float64
}

// TotalSaving reports 1 − consolidated/dedicated for total energy — the
// paper's "up to 53 % power" headline.
func (c Comparison) TotalSaving() float64 {
	if c.DedicatedTotal == 0 {
		return 0
	}
	return 1 - c.ConsolidatedTotal/c.DedicatedTotal
}

// WorkloadSaving reports the saving on active (above-idle) energy only —
// the paper's Fig. 13 "30 % less" observation.
func (c Comparison) WorkloadSaving() float64 {
	dw := c.DedicatedTotal - c.DedicatedIdle
	cw := c.ConsolidatedTotal - c.ConsolidatedIdle
	if dw == 0 {
		return 0
	}
	return 1 - cw/dw
}

// IdleSaving reports the saving on idle energy (server-count reduction plus
// the Xen idle factor).
func (c Comparison) IdleSaving() float64 {
	if c.DedicatedIdle == 0 {
		return 0
	}
	return 1 - c.ConsolidatedIdle/c.DedicatedIdle
}

// Compare folds two meters into a Comparison.
func Compare(dedicated, consolidated *Meter) Comparison {
	return Comparison{
		DedicatedTotal:    dedicated.Energy(),
		ConsolidatedTotal: consolidated.Energy(),
		DedicatedIdle:     dedicated.IdleEnergy(),
		ConsolidatedIdle:  consolidated.IdleEnergy(),
	}
}

// SteadyStateDraw computes the mean draw in watts of `servers` servers at
// uniform utilization u on platform p — the closed-form used by the
// analytic side of the experiments (Eq. 12/13 with platform factors).
func SteadyStateDraw(model ServerModel, servers int, u float64, p Platform) float64 {
	if servers <= 0 {
		return 0
	}
	return model.Draw(u, p) * float64(servers)
}
