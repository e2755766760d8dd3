package plan

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/eval"
	"repro/internal/scenario"
)

// FuzzSearchPeriodsRoutes plans a fuzzed day on the compiled kernel and
// behind an Evaluate-only decorator, which takes the stamping route, and
// requires deeply equal plans, evaluations included, or equal errors.
// kind picks the scenario (periodKinds: homogeneous, heterogeneous,
// dedicated, shared-placement) and the objective; each byte of day is one
// bin, 1–48 of them, a scalar level when its high bit is clear and a
// per-service vector otherwise, drawn from the kind's few levels so that
// levels and placements repeat. binSec 0 takes the hourly default, and
// cost is the migration charge as given, 0, +Inf and invalid values
// included.
func FuzzSearchPeriodsRoutes(f *testing.F) {
	kinds := periodKinds(f)
	f.Add(uint8(0), uint16(3600), 12.0, []byte{0, 1, 2, 3, 2, 1, 0x80, 0x81, 0x82})
	f.Add(uint8(1), uint16(900), 0.0, []byte{0, 1, 0x80, 0x81, 1, 2, 0x83})
	f.Add(uint8(2), uint16(21600), 0.5, []byte{3, 2, 1, 0, 0x84, 0x80})
	f.Add(uint8(3), uint16(0), 12.0, []byte{1, 2, 3, 2, 1, 0x80, 0x81, 0x82, 4, 0})
	f.Add(uint8(4), uint16(900), math.Inf(1), []byte{0, 3, 0x81, 1})
	f.Add(uint8(5), uint16(3600), 1e9, []byte{2, 0x82, 0x81, 2, 0})
	an := eval.NewAnalytic(nil)
	objectives := []string{MinServers, MinPower}
	f.Fuzz(func(t *testing.T, kind uint8, binSec uint16, cost float64, day []byte) {
		if len(day) == 0 || len(day) > 48 {
			t.Skip("a day has 1–48 bins")
		}
		k := kinds[int(kind)%len(kinds)]
		s := k.s.Clone()
		s.Periods = &scenario.Periods{BinSec: float64(binSec)}
		for _, c := range day {
			if c&0x80 == 0 {
				s.Periods.Bins = append(s.Periods.Bins, scenario.PeriodBin{Multiplier: k.scalars[int(c)%len(k.scalars)]})
			} else {
				s.Periods.Bins = append(s.Periods.Bins, scenario.PeriodBin{Multipliers: slices.Clone(k.vectors[int(c&0x7f)%len(k.vectors)])})
			}
		}
		spec := Spec{Scenario: s, Target: 0.05, Objective: objectives[int(kind)/len(kinds)%2]}
		ctx := context.Background()
		want, wantErr := SearchPeriods(ctx, an, nil, spec, cost)
		got, gotErr := SearchPeriods(ctx, stampOnly{an}, nil, spec, cost)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: stamping route err = %v, kernel route %v", k.name, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s (%d bins, cost %g): stamping route plan differs from the kernel route's: segments %v, kernel %v, evaluations %d, kernel %d",
				k.name, len(day), cost, segmentsOf(got), segmentsOf(want), got.Evaluations, want.Evaluations)
		}
	})
}
