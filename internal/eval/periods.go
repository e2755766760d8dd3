package eval

import (
	"context"

	"repro/internal/scenario"
)

// BatchEvaluator is implemented by evaluators that can score many
// candidates as one batch. Sim lowers the whole batch onto a single
// sweep-engine run, so the bins of a periods scenario share one pass
// through the pool budget and the content-addressed cache; evaluators
// without the method are scored candidate by candidate.
type BatchEvaluator interface {
	EvaluateBatch(ctx context.Context, cands []scenario.Scenario) ([]Result, error)
}

// EvaluateBatch scores candidates through ev: one engine batch when ev
// batches natively, else sequentially in index order. Results are
// index-addressed against cands either way.
func EvaluateBatch(ctx context.Context, ev Evaluator, cands []scenario.Scenario) ([]Result, error) {
	if be, ok := ev.(BatchEvaluator); ok {
		return be.EvaluateBatch(ctx, cands)
	}
	out := make([]Result, len(cands))
	for i := range cands {
		r, err := ev.Evaluate(ctx, cands[i])
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}
