package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"time"

	"repro/internal/erlang"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/scenario"
	"repro/internal/serve"
)

// Op counts of the planner workloads are fixed per second of run time,
// so every run of a given length does the same work; the rates were
// chosen so a run lasts about its nominal length on a 2-core machine.
const (
	planHeteroOpsPerSecond = 40
	planDayOpsPerSecond    = 150
	planWarmups            = 5
)

// planInput is one planner workload: the request it repeats and the
// golden its answer must equal.
type planInput struct {
	request      func(o opts) ([]byte, error)
	golden       string // path of the expected response, read from the tree under test
	periods      bool
	opsPerSecond int
}

// runPlanHetero repeats the service's golden plan request: the
// plan-hetero scenario, min-power, search seed 7.
func runPlanHetero(o opts) (*runResult, error) {
	return runPlan(o, planInput{
		request:      func(o opts) ([]byte, error) { return readInput(o, "internal/serve/testdata/plan-request.json") },
		golden:       "internal/serve/testdata/golden/plan.json",
		opsPerSecond: planHeteroOpsPerSecond,
	})
}

// runPlanDay repeats the CLI's periods golden as a service request: the
// 24-bin diurnal day at target 0.05 with 12 Wh per VM move.
func runPlanDay(o opts) (*runResult, error) {
	return runPlan(o, planInput{
		request: func(o opts) ([]byte, error) {
			sc, err := readInput(o, "examples/scenarios/periods-day.json")
			if err != nil {
				return nil, err
			}
			return json.Marshal(serve.PlanRequest{
				Scenario: sc,
				Target:   0.05,
				Periods:  &serve.PlanPeriods{MigrationCostWh: 12},
			})
		},
		golden:       "cmd/consolidate/testdata/golden/plan-periods.json",
		periods:      true,
		opsPerSecond: planDayOpsPerSecond,
	})
}

func runPlan(o opts, in planInput) (*runResult, error) {
	ops := in.opsPerSecond * o.seconds
	r := &runResult{attempted: ops, info: map[string]any{"warmup_ops": planWarmups, "clients": 1}}
	var rec *recorder
	if o.trace {
		rec = newRecorder()
	}

	// Responses are kept as the distinct bodies seen, so a long run does
	// not hold thousands of identical copies; they are checked after the
	// run.
	var (
		svc      *service
		client   *http.Client
		req      call
		counts   obs.Snapshot // traced runs: registry changes over the timed segments
		distinct [][]byte
	)
	bodyOf := make([]int, ops)
	r.lat = make([]time.Duration, ops)
	setup := func() error {
		body, err := in.request(o)
		if err != nil {
			return err
		}
		if svc, err = startService(rec); err != nil {
			return err
		}
		client = newClient()
		req = call{method: http.MethodPost, url: svc.url + "/v1/plan", body: body}
		return warm(client, req, planWarmups)
	}
	segment := func(lo, hi int) error {
		var before obs.Snapshot
		if rec != nil {
			before = svc.counters()
		}
		closedLoop(client, req, lo, hi, r.lat, rec, func(i, status int, body []byte, err error) {
			bodyOf[i] = -1
			switch {
			case err != nil:
				r.fail("op %d: %v", i, err)
			case status != http.StatusOK:
				r.fail("op %d: status %d: %.200s", i, status, body)
			default:
				for k, d := range distinct {
					if bytes.Equal(d, body) {
						bodyOf[i] = k
						return
					}
				}
				bodyOf[i] = len(distinct)
				distinct = append(distinct, body)
			}
		})
		if rec != nil {
			counts = counts.Merge(change(before, svc.counters()))
		}
		return nil
	}
	teardown := func() error {
		client.CloseIdleConnections()
		return svc.close()
	}
	if err := runRounds(r, ops, setup, segment, teardown); err != nil {
		return nil, err
	}

	golden, err := readJSON(o, in.golden)
	if err != nil {
		return nil, err
	}
	for k, d := range distinct {
		var got any
		err := json.Unmarshal(d, &got)
		if k == 0 {
			r.planWatts = planWatts(got, in.periods)
		}
		if err != nil || !reflect.DeepEqual(got, golden) {
			for i, b := range bodyOf {
				if b == k {
					r.wrongOp("op %d: response differs from %s: %.200s", i, in.golden, d)
				}
			}
		}
	}

	if rec != nil {
		if err := replayPlans(o, in, ops, rec, svc, golden, r); err != nil {
			return nil, err
		}
		r.layers = serviceLayers(aggregate(rec.spans), counts)
		planLayers(r.layers, aggregate(rec.spans), ops)
		r.layers["plan.watts"] = r.planWatts
		r.layers["trace.spans"] = float64(len(rec.spans))
		if err := rec.write(o.outDir, traceFile(o)); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// replayPlans runs each op again below HTTP: the handler's decode, then
// plan.Search or plan.SearchPeriods with a span-recording evaluator over
// one shared, preheated analytic memo and the server's pool — the same
// program the handler runs, with spans at each layer boundary. A replay
// whose plan differs from the golden is a wrong output.
func replayPlans(o opts, in planInput, ops int, rec *recorder, svc *service, golden any, r *runResult) error {
	body, err := in.request(o)
	if err != nil {
		return err
	}
	an := eval.NewAnalytic(erlang.NewMemo(0, 0))
	if err := an.Memo().Preheat(serve.DefaultPreheatRhos, 0); err != nil {
		return err
	}
	ev := traceEvaluator(an, rec)
	ctx := context.Background()
	for i := 0; i < ops; i++ {
		req := int64(i)
		var got any
		err := rec.timed("replay", 0, req, func(opID int64) error {
			var pr serve.PlanRequest
			var sc scenario.Scenario
			if err := rec.timed("scenario.parse", opID, req, func(int64) error {
				dec := json.NewDecoder(bytes.NewReader(body))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&pr); err != nil {
					return err
				}
				var err error
				sc, err = scenario.ParseBytes(pr.Scenario)
				return err
			}); err != nil {
				return err
			}
			spec := plan.Spec{Scenario: sc, Target: pr.Target, Objective: pr.Objective, Seed: pr.Seed, MaxIters: pr.MaxIters}
			if !in.periods {
				return rec.timed("plan", opID, req, func(id int64) error {
					p, err := plan.Search(withSpan(ctx, id, req), ev, svc.pool, spec)
					got = p
					return err
				})
			}
			// SearchPeriods resolves the bins itself; the span times the
			// same call on the same input, as its own step.
			if err := rec.timed("scenario.resolve_periods", opID, req, func(int64) error {
				c := sc.Clone()
				c.ApplyDefaults()
				_, err := c.ResolvePeriods()
				return err
			}); err != nil {
				return err
			}
			return rec.timed("plan", opID, req, func(id int64) error {
				p, err := plan.SearchPeriods(withSpan(ctx, id, req), ev, svc.pool, spec, pr.Periods.MigrationCostWh)
				got = p
				return err
			})
		})
		if err != nil {
			return fmt.Errorf("replay op %d: %w", i, err)
		}
		if !sameJSON(got, golden) {
			r.incorrect("replay op %d: plan differs from %s", i, in.golden)
		}
	}
	return nil
}

// planLayers fills the eval, plan and scenario metrics of a planner
// replay of ops ops.
func planLayers(l map[string]float64, st map[string]*layerStat, ops int) {
	if e := st["eval"]; e != nil && e.units > 0 {
		l["eval.evaluations_per_op"] = float64(e.units) / float64(ops)
		l["eval.ms_per_evaluation"] = float64(e.total) / 1e6 / float64(e.units)
		l["eval.busy_ms_per_op"] = perOpMs(e.total, ops)
	}
	if p := st["plan"]; p != nil {
		l["plan.search_ms"] = perOpMs(p.total, ops)
		l["plan.self_ms"] = perOpMs(p.self, ops)
	}
	l["scenario.parse_ms"] = st["scenario.parse"].meanMs()
	l["scenario.resolve_periods_ms"] = st["scenario.resolve_periods"].meanMs()
}

// planWatts is a decoded plan response's steady-state draw: the
// placement's watts, or for a day schedule its total energy over the
// day's hours.
func planWatts(plan any, periods bool) float64 {
	m, _ := plan.(map[string]any)
	if !periods {
		res, _ := m["result"].(map[string]any)
		w, _ := res["watts"].(float64)
		return w
	}
	total, _ := m["total_wh"].(float64)
	bins, _ := m["bins"].([]any)
	var seconds float64
	for _, b := range bins {
		bm, _ := b.(map[string]any)
		s, _ := bm["seconds"].(float64)
		seconds += s
	}
	if seconds == 0 {
		return 0
	}
	return total / (seconds / 3600)
}

// readJSON decodes a JSON file of the tree under test.
func readJSON(o opts, rel string) (any, error) {
	b, err := readInput(o, rel)
	if err != nil {
		return nil, err
	}
	var v any
	if err := json.Unmarshal(b, &v); err != nil {
		return nil, fmt.Errorf("%s: %w", rel, err)
	}
	return v, nil
}

// sameJSON reports whether v encodes to the same JSON document as want
// (already decoded).
func sameJSON(v, want any) bool {
	b, err := json.Marshal(v)
	if err != nil {
		return false
	}
	var got any
	return json.Unmarshal(b, &got) == nil && reflect.DeepEqual(got, want)
}
