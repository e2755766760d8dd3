package eval_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/eval"
	"repro/internal/scenario"
)

// periodsScenario is a small multi-period fixture: the case-study service
// mix on a fixed 4-host fleet across three uneven bins.
func periodsScenario() scenario.Scenario {
	s := scenario.Scenario{
		Name: "eval-periods",
		Mode: "consolidated",
		Services: []scenario.Service{
			scenario.WebSpec(3976, 0),
			scenario.DBSpec(280, 0),
		},
		Fleet:   scenario.Fleet{Hosts: 4},
		Horizon: 20,
		Periods: &scenario.Periods{
			BinSec: 1800,
			Bins: []scenario.PeriodBin{
				{Name: "trough", Multiplier: 0.3},
				{Name: "shoulder", Multiplier: 0.8},
				{Name: "peak", Multiplier: 1.2},
			},
		},
	}
	return s
}

// Both evaluators refuse a periods scenario whole: it has no single
// stationary operating point, so callers score its resolved bins.
func TestEvaluatorsRejectPeriods(t *testing.T) {
	s := periodsScenario()
	for _, ev := range []eval.Evaluator{eval.NewAnalytic(nil), eval.NewSim(nil)} {
		if _, err := ev.Evaluate(context.Background(), s); !errors.Is(err, eval.ErrUnsupported) {
			t.Errorf("%T.Evaluate: err = %v, want ErrUnsupported", ev, err)
		}
	}
	if _, err := eval.ModelFromScenario(s, 0.05); !errors.Is(err, eval.ErrUnsupported) {
		t.Errorf("ModelFromScenario: err = %v, want ErrUnsupported", err)
	}
}

// Scoring a periods scenario's resolved bins as one batch is exactly
// per-bin Evaluate on the stationary sub-scenarios, for both evaluators.
func TestEvaluatePeriodsMatchesPerBin(t *testing.T) {
	s := periodsScenario()
	bins, err := s.ResolvePeriods()
	if err != nil {
		t.Fatal(err)
	}
	cands := make([]scenario.Scenario, len(bins))
	for i, b := range bins {
		cands[i] = b.Scenario
	}
	for _, ev := range []eval.Evaluator{eval.NewAnalytic(nil), eval.NewSim(nil)} {
		rs, err := eval.EvaluateBatch(context.Background(), ev, cands)
		if err != nil {
			t.Fatal(err)
		}
		if len(rs) != len(bins) {
			t.Fatalf("%T: %d results for %d bins", ev, len(rs), len(bins))
		}
		for i, got := range rs {
			want, err := ev.Evaluate(context.Background(), cands[i])
			if err != nil {
				t.Fatal(err)
			}
			got.CacheHit = want.CacheHit
			if resultsDiffer(got, want) {
				t.Errorf("%T bin %s: batched result diverged from per-bin Evaluate:\n%+v\n%+v",
					ev, bins[i].Name, got, want)
			}
		}
		// Heavier bins must draw strictly more power.
		if rs[0].Watts >= rs[2].Watts {
			t.Errorf("%T: trough draw %g W not below peak draw %g W", ev, rs[0].Watts, rs[2].Watts)
		}
	}
}

// Batch evaluation is shard-invariant: splitting a candidate batch into
// sub-batches and concatenating the results reproduces the single-batch
// answer element for element.
func TestSimEvaluateBatchShards(t *testing.T) {
	s := periodsScenario()
	bins, err := s.ResolvePeriods()
	if err != nil {
		t.Fatal(err)
	}
	cands := make([]scenario.Scenario, len(bins))
	for i, b := range bins {
		cands[i] = b.Scenario
	}
	ev := eval.NewSim(nil)
	whole, err := ev.EvaluateBatch(context.Background(), cands)
	if err != nil {
		t.Fatal(err)
	}
	if len(whole) != len(cands) {
		t.Fatalf("results = %d, want %d", len(whole), len(cands))
	}
	var split []eval.Result
	for _, part := range [][]scenario.Scenario{cands[:1], cands[1:]} {
		rs, err := ev.EvaluateBatch(context.Background(), part)
		if err != nil {
			t.Fatal(err)
		}
		split = append(split, rs...)
	}
	for i := range whole {
		a, b := whole[i], split[i]
		b.CacheHit = a.CacheHit
		if resultsDiffer(a, b) {
			t.Errorf("candidate %d: whole-batch and split-batch results diverged:\n%+v\n%+v", i, a, b)
		}
	}
}

// The package-level EvaluateBatch falls back to sequential Evaluate for
// evaluators without native batching, preserving index addressing.
func TestEvaluateBatchFallback(t *testing.T) {
	s := periodsScenario()
	bins, err := s.ResolvePeriods()
	if err != nil {
		t.Fatal(err)
	}
	cands := []scenario.Scenario{bins[0].Scenario, bins[2].Scenario}
	ev := eval.NewAnalytic(nil)
	got, err := eval.EvaluateBatch(context.Background(), ev, cands)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cands {
		want, err := ev.Evaluate(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		if resultsDiffer(got[i], want) {
			t.Errorf("candidate %d diverged from sequential Evaluate", i)
		}
	}
}
