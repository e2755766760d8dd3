// Package virt models the performance impact of virtualization — the
// paper's "impact factor" aᵢⱼ ∈ (0, 1]: the ratio of the QoS a service
// obtains from VMs on a host to the QoS it obtains from native Linux on the
// same host (Section IV-C.1).
//
// The package plays the role of the Xen layer in the authors' testbed. It
// provides:
//
//   - the three measured impact-factor curves the paper fits (Web disk I/O,
//     Web CPU, DB CPU&software) as parametric ImpactCurve values, with the
//     reconstructed coefficients of DESIGN.md §2;
//   - a HostOverhead model combining per-VM-count curves with the Domain-0
//     reservation and the vCPU pinning effect of Fig. 7; and
//   - fitting helpers that recover curve coefficients from measured
//     throughput points, closing the same regression loop as the paper.
package virt

import (
	"errors"
	"fmt"

	"repro/internal/stats"
)

// ImpactCurve maps a VM count v >= 1 to an impact factor a(v). The
// convention follows the paper: a is measured against native Linux, so
// a ≈ 1 means virtualization is free and a < 1 means degradation. Curves
// may mathematically exceed 1 (the paper's own DB fit does, because
// multi-VM DB hosting outperforms the OS-software-limited native setup);
// Clamped wraps a curve into the model's (0, 1] domain.
type ImpactCurve interface {
	// At reports the impact factor for v co-located VMs.
	At(v int) float64
	// String describes the curve.
	String() string
}

// LinearCurve is a(v) = Intercept + Slope·v — the form the paper fits for
// the Web service on both disk I/O (Fig. 5b) and CPU (Fig. 6b).
type LinearCurve struct {
	Intercept float64
	Slope     float64
}

func (c LinearCurve) At(v int) float64 { return c.Intercept + c.Slope*float64(v) }

func (c LinearCurve) String() string {
	return fmt.Sprintf("a(v) = %.4g%+.4g*v", c.Intercept, c.Slope)
}

// RationalCurve is a(v) = C·v²/(1+v²) — the saturating form the paper fits
// for the DB service's CPU&software factor (Fig. 8b). It captures the
// OS-software ceiling: one VM (like native Linux) delivers roughly half the
// throughput of two or more VMs, because the single OS image, not the CPU,
// is the bottleneck.
type RationalCurve struct {
	C float64
}

func (c RationalCurve) At(v int) float64 {
	fv := float64(v)
	return c.C * fv * fv / (1 + fv*fv)
}

func (c RationalCurve) String() string { return fmt.Sprintf("a(v) = %.4g*v^2/(1+v^2)", c.C) }

// ConstantCurve is a(v) = Value for every v — the ideal-virtualization
// reference (Value = 1) and a convenient test double.
type ConstantCurve struct {
	Value float64
}

func (c ConstantCurve) At(int) float64 { return c.Value }
func (c ConstantCurve) String() string { return fmt.Sprintf("a(v) = %.4g", c.Value) }

// Clamped restricts a curve's output to (lo, 1], where lo is a small
// positive floor protecting downstream Erlang math from non-positive
// factors. The paper's model demands a ∈ (0, 1] even though two of its own
// fitted curves stray outside that interval.
type Clamped struct {
	Curve ImpactCurve
	Floor float64 // zero means 0.01
}

func (c Clamped) At(v int) float64 {
	floor := c.Floor
	if floor == 0 {
		floor = 0.01
	}
	a := c.Curve.At(v)
	if a > 1 {
		return 1
	}
	if a < floor {
		return floor
	}
	return a
}

func (c Clamped) String() string { return "clamp(" + c.Curve.String() + ")" }

// The paper's fitted curves with the reconstructed coefficients of
// DESIGN.md §2.
var (
	// WebDiskIOCurve is Fig. 5(b): requests sweep a 5.7 GB SPECweb2005
	// fileset, disk I/O-bound. The slope is reconstructed as −0.102 so that
	// degradation passes 50 % beyond ~6 VMs (a(6) = 0.47, a(7) = 0.37),
	// matching Section IV-D's second observation, and a(2) ≈ 0.88 lands
	// near the stated case-study input a_wi ≈ 0.8.
	WebDiskIOCurve = LinearCurve{Intercept: 1.082, Slope: -0.102}

	// WebCPUCurve is Fig. 6(b): all requests hit one 8 KB file, CPU-bound.
	WebCPUCurve = LinearCurve{Intercept: 0.658, Slope: -0.0139}

	// DBCPUCurve is Fig. 8(b): TPC-W browsing over a 2.7 GB database,
	// CPU-bound with the OS-software ceiling on native/1-VM setups.
	DBCPUCurve = RationalCurve{C: 1.85}
)

// ErrInvalidVMCount reports a non-positive VM count.
var ErrInvalidVMCount = errors.New("virt: VM count must be >= 1")

// PinningPolicy selects how vCPUs map to physical cores (Fig. 7).
type PinningPolicy int

const (
	// PinnedVCPUs pins each DB vCPU to its own physical core, the
	// configuration the paper adopts after Fig. 7.
	PinnedVCPUs PinningPolicy = iota
	// XenScheduledVCPUs leaves placement to the Xen credit scheduler,
	// which Fig. 7 shows costs roughly a quarter of DB throughput —
	// "reflecting the latent room for vCPU scheduling in Xen".
	XenScheduledVCPUs
)

func (p PinningPolicy) String() string {
	if p == PinnedVCPUs {
		return "pinned"
	}
	return "xen-scheduled"
}

// UnpinnedPenalty is the multiplicative throughput factor Fig. 7 shows for
// leaving vCPU scheduling to Xen instead of pinning (reconstructed: the
// figure shows pinning recovering roughly a third over the unpinned
// configuration, i.e. unpinned ≈ 0.75× pinned).
const UnpinnedPenalty = 0.75

// HostOverhead bundles the per-resource impact curves of one host
// configuration, with the VM count and pinning policy applied.
type HostOverhead struct {
	// Curves maps a resource name (matching core.Resource values) to its
	// impact curve.
	Curves map[string]ImpactCurve

	// Pinning is the vCPU placement policy; it scales CPU-family resources
	// by UnpinnedPenalty when set to XenScheduledVCPUs.
	Pinning PinningPolicy

	// CPUResources names the resources affected by the pinning policy;
	// empty means {"cpu"}.
	CPUResources []string
}

// Factor reports the impact factor for the given resource with v VMs
// co-located on the host, clamped to (0, 1]. Resources without a curve
// default to 1 (no overhead). It returns an error for v < 1.
func (h HostOverhead) Factor(resource string, v int) (float64, error) {
	if v < 1 {
		return 0, fmt.Errorf("%w: %d", ErrInvalidVMCount, v)
	}
	a := 1.0
	if c, ok := h.Curves[resource]; ok {
		a = Clamped{Curve: c}.At(v)
	}
	if h.Pinning == XenScheduledVCPUs && h.isCPU(resource) {
		a *= UnpinnedPenalty
	}
	if a > 1 {
		a = 1
	}
	if a <= 0 {
		a = 0.01
	}
	return a, nil
}

// RawFactor is Factor without the (0, 1] clamp: the measured ratio against
// native Linux, which for the DB service exceeds 1 at v >= 2. The cluster
// simulator uses RawFactor (physics), while model inputs use Factor
// (the paper's domain constraint).
func (h HostOverhead) RawFactor(resource string, v int) (float64, error) {
	if v < 1 {
		return 0, fmt.Errorf("%w: %d", ErrInvalidVMCount, v)
	}
	a := 1.0
	if c, ok := h.Curves[resource]; ok {
		a = c.At(v)
	}
	if h.Pinning == XenScheduledVCPUs && h.isCPU(resource) {
		a *= UnpinnedPenalty
	}
	if a <= 0 {
		a = 0.01
	}
	return a, nil
}

func (h HostOverhead) isCPU(resource string) bool {
	cpus := h.CPUResources
	if len(cpus) == 0 {
		cpus = []string{"cpu"}
	}
	for _, r := range cpus {
		if r == resource {
			return true
		}
	}
	return false
}

// WebHostOverhead returns the case-study Web-service host configuration:
// disk I/O follows Fig. 5(b), CPU follows Fig. 6(b).
func WebHostOverhead() HostOverhead {
	return HostOverhead{Curves: map[string]ImpactCurve{
		"diskio": WebDiskIOCurve,
		"cpu":    WebCPUCurve,
	}}
}

// DBHostOverhead returns the case-study DB-service host configuration:
// CPU&software follows Fig. 8(b); disk demand is negligible.
func DBHostOverhead() HostOverhead {
	return HostOverhead{Curves: map[string]ImpactCurve{
		"cpu": DBCPUCurve,
	}}
}

// FitLinear recovers a LinearCurve from measured (vmCount, impactFactor)
// points — the regression step of Fig. 5(b)/6(b).
func FitLinear(vms []int, factors []float64) (LinearCurve, float64, error) {
	if len(vms) != len(factors) || len(vms) < 2 {
		return LinearCurve{}, 0, stats.ErrDegenerate
	}
	xs := make([]float64, len(vms))
	for i, v := range vms {
		xs[i] = float64(v)
	}
	fit, err := stats.LinearRegression(xs, factors)
	if err != nil {
		return LinearCurve{}, 0, err
	}
	return LinearCurve{Intercept: fit.Intercept, Slope: fit.Slope}, fit.R2, nil
}

// FitRational recovers a RationalCurve from measured points — the
// regression step of Fig. 8(b).
func FitRational(vms []int, factors []float64) (RationalCurve, float64, error) {
	if len(vms) != len(factors) || len(vms) == 0 {
		return RationalCurve{}, 0, stats.ErrDegenerate
	}
	xs := make([]float64, len(vms))
	for i, v := range vms {
		xs[i] = float64(v)
	}
	fit, err := stats.FitRationalSaturating(xs, factors)
	if err != nil {
		return RationalCurve{}, 0, err
	}
	return RationalCurve{C: fit.C}, fit.R2, nil
}

// StableMeanImpact computes an impact factor the way the paper does for
// Fig. 5(b)/6(b): the ratio of the stable mean throughput of the
// virtualized configuration to that of the native configuration, where the
// stable mean is taken over the plateau region (observations within the
// top (1−plateauBand) fraction of the peak). plateauBand 0 means 0.2.
func StableMeanImpact(virtualized, native []float64, plateauBand float64) (float64, error) {
	vn, err := stableMean(virtualized, plateauBand)
	if err != nil {
		return 0, fmt.Errorf("virt: virtualized series: %w", err)
	}
	nm, err := stableMean(native, plateauBand)
	if err != nil {
		return 0, fmt.Errorf("virt: native series: %w", err)
	}
	if nm == 0 {
		return 0, errors.New("virt: native stable mean is zero")
	}
	return vn / nm, nil
}

func stableMean(series []float64, band float64) (float64, error) {
	if len(series) == 0 {
		return 0, errors.New("empty throughput series")
	}
	if band == 0 {
		band = 0.2
	}
	peak := stats.Max(series)
	if peak <= 0 {
		return 0, errors.New("non-positive peak throughput")
	}
	var acc stats.Accumulator
	for _, x := range series {
		if x >= peak*(1-band) {
			acc.Add(x)
		}
	}
	return acc.Mean(), nil
}
