package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// twoPassDecode is the decode handlePlan replaced: a strict PlanRequest,
// then scenario.ParseBytes of its raw scenario when one is present.
func twoPassDecode(body []byte) (PlanRequest, *scenario.Scenario, error) {
	var req PlanRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return PlanRequest{}, nil, err
	}
	if len(req.Scenario) == 0 {
		return req, nil, nil
	}
	sc, err := scenario.ParseBytes(req.Scenario)
	if err != nil {
		return PlanRequest{}, nil, err
	}
	return req, &sc, nil
}

// scenarioKeys counts the top-level keys of body's first JSON value that
// encoding/json matches to the "scenario" field (case-insensitively, as
// it matches every field); a body it cannot walk counts 0.
func scenarioKeys(body []byte) int {
	dec := json.NewDecoder(bytes.NewReader(body))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return 0
	}
	n := 0
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return n
		}
		if key, ok := tok.(string); ok && strings.EqualFold(key, "scenario") {
			n++
		}
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			return n
		}
	}
	return n
}

// FuzzPlanDecode holds the one-pass plan decode to the two-pass decode it
// replaced: both accept and reject the same bodies and yield equal
// requests and scenarios, apart from handlePlan's documented edges — a
// null scenario decodes as absent, and a repeated "scenario" key merges
// (such bodies are skipped). The third edge, an unknown field inside the
// scenario, changes only the error message, so it is held here too. No
// planning runs, so every input is cheap.
func FuzzPlanDecode(f *testing.F) {
	for _, name := range []string{"plan-request.json", "plan-periods-request.json", "plan-infeasible-request.json", "plan-periods-unknown-request.json"} {
		body, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	for _, body := range []string{
		`{"scenario": null, "target": 0.1}`,
		`{"scenario": {"services": [], "bogus": 1}, "target": 0.1}`,
		`{"scenario": {"name": "a"}, "Scenario": {"seed": 3}, "target": 0.1}`,
		`{"SCENARIO": {"mode": "dedicated"}, "periods": {"migration_cost_wh": 2}, "evaluator": "sim"}`,
		`{"scenario": {"horizon": "x"}, "target": 0.1}`,
		`{"scenario": 5}`,
		`{"target": 0.1, "seed": 7, "max_iters": 3}`,
		`{"scenario": {}} trailing`,
		`null`,
		`{"scenario": {"fleet": {"classes": [{"preset": "amd", "count": 2, "capability": {"cpu": 1.5}}]}}}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if scenarioKeys(body) > 1 {
			return // a repeated key merges into the first value
		}
		got, gotErr := decodePlanBody(bytes.NewReader(body))
		req, sc, wantErr := twoPassDecode(body)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("one pass: %v; two passes: %v\nbody %q", gotErr, wantErr, body)
		}
		if gotErr != nil {
			return
		}
		raw := req.Scenario
		req.Scenario = nil
		if !reflect.DeepEqual(got.PlanRequest, req) {
			t.Fatalf("request %+v, two passes %+v\nbody %q", got.PlanRequest, req, body)
		}
		switch {
		case got.Scenario == nil:
			if sc != nil && string(bytes.TrimSpace(raw)) != "null" {
				t.Fatalf("no scenario decoded from %q", raw)
			}
		case sc == nil:
			t.Fatalf("scenario %+v decoded where two passes found none\nbody %q", *got.Scenario, body)
		case !reflect.DeepEqual(*got.Scenario, *sc):
			t.Fatalf("scenario %+v, two passes %+v\nbody %q", *got.Scenario, *sc, body)
		}
	})
}

// TestPlanDecodeEdges pins the three places where handlePlan's one-pass
// decode departs from parsing the raw scenario after the request.
func TestPlanDecodeEdges(t *testing.T) {
	s := newTestServer(t)

	// A null scenario is no scenario.
	w := postPlan(t, s, `{"scenario": null, "target": 0.05}`)
	if e := decodeError(t, w); w.Code != http.StatusBadRequest || e.Message != "plan needs a scenario" {
		t.Fatalf("null scenario: status %d, error %+v", w.Code, e)
	}

	// An unknown field inside the scenario is the strict decoder's 400.
	w = postPlan(t, s, `{"scenario": {"services": [], "bogus": 1}, "target": 0.05}`)
	e := decodeError(t, w)
	if want := `decoding request body: json: unknown field "bogus"`; w.Code != http.StatusBadRequest || e.Code != CodeInvalidArgument || e.Message != want {
		t.Fatalf("unknown scenario field: status %d, error %+v, want message %q", w.Code, e, want)
	}

	// A repeated scenario key merges into the first value: the services
	// of the first survive beside the name of the second, and the merged
	// scenario plans.
	body := `{"scenario": ` + planScenario + `, "scenario": {"name": "merged"}, "target": 0.05}`
	pb, err := decodePlanBody(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if pb.Scenario == nil || pb.Scenario.Name != "merged" || len(pb.Scenario.Services) != 1 || pb.Scenario.Fleet.Hosts != 4 {
		t.Fatalf("repeated scenario key decoded to %+v", pb.Scenario)
	}
	if w := postPlan(t, s, body); w.Code != http.StatusOK {
		t.Fatalf("merged scenario: status %d: %s", w.Code, w.Body.String())
	}
}
