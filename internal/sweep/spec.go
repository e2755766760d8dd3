// Package sweep is the unified parameter-sweep engine: a declarative sweep
// spec (a base scenario plus named axes) expands into a deterministic grid
// of points, and one shared engine executes the points — and their
// replications — against a single process-wide worker pool, memoizing
// completed points in a content-addressed cache under artifacts/cache/.
//
// The paper's results are all sweeps (loss vs arrival rate, consolidation
// size vs utilization and power), so internal/experiments defines its
// figures as point lists over scenario.Scenario and funnels every
// simulation through Engine.RunPoints; cmd/simulate exposes the same
// machinery on JSON files via -sweep.
//
// Determinism contract: point i of a spec runs with seed
// PointSeed(rootSeed, i) unless the spec pins seeds explicitly, replication
// merging is order-independent, and the cache stores only seed-determined
// results — so a sweep's outcome is bit-identical for any worker count and
// any cache state.
package sweep

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"repro/internal/jsonenc"
	"repro/internal/scenario"
)

// ErrInvalidSpec reports an unusable sweep spec.
var ErrInvalidSpec = errors.New("sweep: invalid spec")

// maxPoints bounds a single expansion; a grid beyond this is almost
// certainly a unit mistake in an axis.
const maxPoints = 100000

// Axis is one swept parameter: a dotted path into the scenario JSON
// ("fleet.hosts", "services.0.clients", "horizon") and the values to take.
type Axis struct {
	Path   string `json:"path"`
	Values []any  `json:"values"`
}

// Spec is the declarative sweep description: a base scenario plus axes.
// Expansion is row-major with the first axis outermost, so the point order
// — and therefore every derived seed — is a pure function of the spec.
type Spec struct {
	// Name labels the sweep in reports and manifests.
	Name string `json:"name,omitempty"`

	// Notes is free-form documentation carried with the file.
	Notes string `json:"notes,omitempty"`

	// Base is the scenario every point starts from.
	Base scenario.Scenario `json:"base"`

	// Axes are the swept parameters; an empty list yields the single base
	// point.
	Axes []Axis `json:"axes,omitempty"`
}

// Point is one expanded grid point.
type Point struct {
	// Index is the point's position in the row-major grid order.
	Index int

	// Label names the point for reports ("fleet.hosts=3 horizon=60").
	Label string

	// Scenario is the fully resolved per-point scenario (defaults applied,
	// seed derived).
	Scenario scenario.Scenario
}

// ParseSpec strictly decodes one sweep spec from JSON; unknown fields are
// rejected so typos fail loudly, and nothing but whitespace may follow
// the spec object.
func ParseSpec(r io.Reader) (Spec, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return Spec{}, fmt.Errorf("%w: %v", ErrInvalidSpec, err)
	}
	return ParseSpecBytes(data)
}

// ParseSpecBytes decodes one sweep spec from a JSON byte slice
// (jsonenc.Decode).
func ParseSpecBytes(data []byte) (Spec, error) {
	var sp Spec
	if err := jsonenc.Decode(data, &sp); err != nil {
		return Spec{}, fmt.Errorf("%w: %v", ErrInvalidSpec, err)
	}
	return sp, nil
}

// Size reports the grid size (the product of axis lengths).
func (sp Spec) Size() int {
	n := 1
	for _, ax := range sp.Axes {
		n *= len(ax.Values)
	}
	return n
}

// Validate checks the spec shape without expanding it.
func (sp Spec) Validate() error {
	seen := map[string]bool{}
	for i, ax := range sp.Axes {
		if ax.Path == "" {
			return fmt.Errorf("%w: axis %d has no path", ErrInvalidSpec, i)
		}
		if len(ax.Values) == 0 {
			return fmt.Errorf("%w: axis %q has no values", ErrInvalidSpec, ax.Path)
		}
		if seen[ax.Path] {
			return fmt.Errorf("%w: axis %q appears twice", ErrInvalidSpec, ax.Path)
		}
		seen[ax.Path] = true
	}
	if sp.Size() > maxPoints {
		return fmt.Errorf("%w: %d points exceeds the %d-point cap", ErrInvalidSpec, sp.Size(), maxPoints)
	}
	return nil
}

// Expand materializes the grid: every combination of axis values applied to
// the base scenario, in row-major order with the first axis outermost.
// Each point gets seed PointSeed(rootSeed, index), where rootSeed is the
// base scenario's (default-resolved) seed — unless an axis sweeps "seed"
// itself, which then wins. Every point is validated; the first invalid
// point aborts the expansion.
//
// Axis paths are compiled against the scenario schema once per spec (see
// setters.go); each point then costs one deep clone of the base plus a
// typed field write per axis, with no per-point JSON round-trip.
func (sp Spec) Expand() ([]Point, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}

	axes := make([]compiledAxis, len(sp.Axes))
	for i, ax := range sp.Axes {
		ca, err := compileAxis(ax)
		if err != nil {
			return nil, fmt.Errorf("%w: axis %q: %v", ErrInvalidSpec, ax.Path, err)
		}
		axes[i] = ca
	}

	root := sp.Base.Seed
	if root == 0 {
		resolved := sp.Base
		resolved.ApplyDefaults()
		root = resolved.Seed
	}
	seedSwept := false
	for _, ax := range sp.Axes {
		if ax.Path == "seed" {
			seedSwept = true
		}
	}

	points := make([]Point, 0, sp.Size())
	coords := make([]int, len(sp.Axes))
	labels := make([]string, len(sp.Axes))
	for {
		s := sp.Base.Clone()
		for a := range axes {
			ca := &axes[a]
			labels[a] = ca.labels[coords[a]]
			if err := ca.apply(&s, coords[a]); err != nil {
				return nil, fmt.Errorf("%w: axis %q: %v", ErrInvalidSpec, ca.path, err)
			}
		}
		label := strings.Join(labels, " ")
		if !seedSwept {
			s.Seed = PointSeed(root, len(points))
		}
		s.ApplyDefaults()
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("point %d (%s): %w", len(points), label, err)
		}
		points = append(points, Point{
			Index:    len(points),
			Label:    label,
			Scenario: s,
		})

		// Row-major increment: last axis fastest.
		a := len(coords) - 1
		for ; a >= 0; a-- {
			coords[a]++
			if coords[a] < len(sp.Axes[a].Values) {
				break
			}
			coords[a] = 0
		}
		if a < 0 {
			break
		}
	}
	return points, nil
}

// PointSeed derives point index's seed from the sweep's root seed with a
// splitmix64 mix: well-spread, stable across releases, and never zero
// (zero means "default" in a scenario).
func PointSeed(root uint64, index int) uint64 {
	z := root + 0x9e3779b97f4a7c15*uint64(index+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}
