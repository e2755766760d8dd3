package eval_test

import (
	"testing"

	"repro/internal/eval"
	"repro/internal/scenario"
)

// scoreCases are periods-day's base scenario compiled twice, with its
// homogeneous fleet and with a supply of AMD and Intel hosts, each with a
// placement the planner's probes would score: 6 hosts, and 2 AMD plus 3
// Intel hosts, whose 4.5 capability units take the continuous Erlang B.
func scoreCases(tb testing.TB) []struct {
	name string
	k    *eval.Kernel
	p    eval.Placement
} {
	flat := periodsDay(tb)
	flat.Periods = nil
	hetero := flat.Clone()
	hetero.Fleet = scenario.Fleet{Classes: []scenario.HostClass{
		{Preset: "amd", Count: 4},
		{Preset: "intel", Count: 4},
	}}
	an := eval.NewAnalytic(nil)
	out := []struct {
		name string
		k    *eval.Kernel
		p    eval.Placement
	}{
		{name: "homogeneous", p: eval.Placement{Hosts: 6}},
		{name: "hetero", p: eval.Placement{Classes: []int{2, 3}}},
	}
	for i, s := range []scenario.Scenario{flat, hetero} {
		k, err := an.Compile(resolve(tb, s))
		if err != nil {
			tb.Fatal(err)
		}
		out[i].k = k
	}
	return out
}

// BenchmarkKernelScore is the analytic ladder's eval rung alone: one
// compiled kernel scoring one placement into the caller's storage, as
// the planner's probes do, with the Erlang tables already grown. It
// allocates nothing.
func BenchmarkKernelScore(b *testing.B) {
	for _, c := range scoreCases(b) {
		b.Run(c.name, func(b *testing.B) {
			var res eval.Result
			losses := make([]eval.ServiceLoss, 2)
			if err := c.k.ScoreInto(&res, losses, c.p); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.k.ScoreInto(&res, losses, c.p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Scoring into the caller's storage allocates nothing, on an integer and
// on a fractional fleet, and gives Score's result bit for bit, its
// per-service losses in the caller's slice.
func TestScoreIntoAllocatesNothing(t *testing.T) {
	for _, c := range scoreCases(t) {
		want, err := c.k.Score(c.p)
		if err != nil {
			t.Fatal(err)
		}
		var res eval.Result
		losses := make([]eval.ServiceLoss, 2)
		allocs := testing.AllocsPerRun(100, func() {
			if err := c.k.ScoreInto(&res, losses, c.p); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: ScoreInto made %v allocations", c.name, allocs)
		}
		if !sameBits(res, want) || &res.Services[0] != &losses[0] {
			t.Errorf("%s: ScoreInto %+v, Score %+v", c.name, res, want)
		}
	}
}
