package main

import (
	"context"
	"testing"
	"time"

	"repro/internal/eval"
	"repro/internal/scenario"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n      int
		label  string
		beyond int
	}{
		{20, "50", 10},
		{99, "50", 49},
		{100, "90", 10},
		{999, "90", 99},
		{1000, "99", 10},
		{9000, "99", 90},
		{9999, "99", 99},
		{10000, "99.9", 10},
	} {
		got := tailPercentile(tc.n)
		if got.label != tc.label || got.beyond != tc.beyond {
			t.Errorf("tailPercentile(%d) = p%s with %d beyond, want p%s with %d", tc.n, got.label, got.beyond, tc.label, tc.beyond)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]time.Duration, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = time.Duration(i + 1)
	}
	if got := percentile(xs, 0.99); got != 990 {
		t.Fatalf("p99 of 1..1000 = %d, want 990", got)
	}
	if got := percentile(xs, 0.5); got != 500 {
		t.Fatalf("p50 of 1..1000 = %d, want 500", got)
	}
}

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "plan", Start: 0, End: 100},
		// Two overlapping children cover [10, 70]; a third runs past the
		// parent's end and counts only up to it.
		{ID: 2, Parent: 1, Name: "eval", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "eval", Start: 30, End: 70},
		{ID: 4, Parent: 1, Name: "eval", Start: 90, End: 120},
		// A grandchild is covered by its own parent, not by the root.
		{ID: 5, Parent: 2, Name: "inner", Start: 20, End: 30},
	}
	st := aggregate(spans)
	if got := st["plan"].self; got != 30 {
		t.Errorf("plan self time %d, want 30", got)
	}
	if got := st["eval"].self; got != 40+40+30-10 {
		t.Errorf("eval self time %d, want 100", got)
	}
	if got, want := st["eval"].total, int64(40+40+30); got != want {
		t.Errorf("eval total %d, want %d", got, want)
	}
}

type plainEval struct{}

func (plainEval) Evaluate(context.Context, scenario.Scenario) (eval.Result, error) {
	return eval.Result{Hosts: 1}, nil
}

type budgetedEval struct{ plainEval }

func (budgetedEval) SelfBudgeted() bool { return true }

type batchEval struct{ plainEval }

func (batchEval) EvaluateBatch(_ context.Context, c []scenario.Scenario) ([]eval.Result, error) {
	return make([]eval.Result, len(c)), nil
}

type budgetedBatchEval struct{ batchEval }

func (budgetedBatchEval) SelfBudgeted() bool { return true }

func TestTraceEvaluatorForwardsExactlyTheOptionalInterfaces(t *testing.T) {
	for _, ev := range []eval.Evaluator{plainEval{}, budgetedEval{}, batchEval{}, budgetedBatchEval{}} {
		wrapped := traceEvaluator(ev, newRecorder())
		_, wantSB := ev.(eval.SelfBudgeted)
		_, wantBE := ev.(eval.BatchEvaluator)
		_, gotSB := wrapped.(eval.SelfBudgeted)
		_, gotBE := wrapped.(eval.BatchEvaluator)
		if gotSB != wantSB || gotBE != wantBE {
			t.Errorf("%T: wrapper SelfBudgeted=%v BatchEvaluator=%v, want %v %v", ev, gotSB, gotBE, wantSB, wantBE)
		}
	}
}

func TestTraceEvaluatorRecordsSpansUnderTheContextSpan(t *testing.T) {
	rec := newRecorder()
	ev := traceEvaluator(budgetedBatchEval{}, rec)
	ctx := withSpan(context.Background(), 42, 7)
	res, err := ev.Evaluate(ctx, scenario.Scenario{})
	if err != nil || res.Hosts != 1 {
		t.Fatalf("Evaluate = %+v, %v; want the wrapped result", res, err)
	}
	if _, err := ev.(eval.BatchEvaluator).EvaluateBatch(ctx, make([]scenario.Scenario, 3)); err != nil {
		t.Fatal(err)
	}
	if len(rec.spans) != 2 {
		t.Fatalf("%d spans, want 2", len(rec.spans))
	}
	for i, want := range []int64{1, 3} {
		s := rec.spans[i]
		if s.Name != "eval" || s.Parent != 42 || s.Req != 7 || s.N != want {
			t.Errorf("span %d = %+v, want an eval span under 42 for request 7 covering %d", i, s, want)
		}
	}
}

func TestSpanHeaderRoundTrip(t *testing.T) {
	req, id := parseSpanHeader(spanHeaderValue(12, 345))
	if req != 12 || id != 345 {
		t.Fatalf("parsed %d:%d, want 12:345", req, id)
	}
	if req, id := parseSpanHeader(""); req != 0 || id != 0 {
		t.Fatalf("empty header parsed as %d:%d", req, id)
	}
}

func TestSummarizeTakesMediansOverWindows(t *testing.T) {
	// 1000 ops of 1 ms, except that one window in ten runs ten times
	// slower: the medians must not move.
	lat := make([]time.Duration, 1000)
	for i := range lat {
		lat[i] = time.Millisecond
		if i >= 300 && i < 400 {
			lat[i] = 10 * time.Millisecond
		}
	}
	s := summarize(lat)
	if s.windows != 10 || s.minWindow != 100 || s.pct.label != "90" {
		t.Fatalf("windows %d of %d ops, tail p%s; want 10 of 100, p90", s.windows, s.minWindow, s.pct.label)
	}
	if s.p50 != time.Millisecond || s.tail != time.Millisecond {
		t.Fatalf("p50 %v tail %v, want 1ms each", s.p50, s.tail)
	}
}

func TestRunRoundsSetsUpBeforeEverySegment(t *testing.T) {
	var r runResult
	var calls []string
	var covered []int
	err := runRounds(&r, 25,
		func() error { calls = append(calls, "setup"); return nil },
		func(lo, hi int) error {
			calls = append(calls, "segment")
			for i := lo; i < hi; i++ {
				covered = append(covered, i)
			}
			return nil
		},
		func() error { calls = append(calls, "teardown"); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(r.setups) != rounds || len(r.segmentRates) != rounds || len(calls) != 3*rounds {
		t.Fatalf("%d set-ups, %d segment rates, %d calls; want %d, %d, %d", len(r.setups), len(r.segmentRates), len(calls), rounds, rounds, 3*rounds)
	}
	for k := 0; k < rounds; k++ {
		if calls[3*k] != "setup" || calls[3*k+1] != "segment" || calls[3*k+2] != "teardown" {
			t.Fatalf("round %d calls %v, want setup, segment, teardown", k, calls[3*k:3*k+3])
		}
	}
	for i, op := range covered {
		if op != i {
			t.Fatalf("segments covered ops %v, want 0..24 once each in order", covered)
		}
	}
	if len(covered) != 25 {
		t.Fatalf("segments covered %d ops, want 25", len(covered))
	}
}
