package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/eval"
	"repro/internal/plan"
)

func postPlan(t *testing.T, s *Server, body string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/plan", strings.NewReader(body)))
	return w
}

const planScenario = `{
  "mode": "consolidated",
  "services": [
    {
      "profile": { "preset": "specweb-ecommerce" },
      "overhead": { "preset": "web" },
      "arrivals": { "kind": "poisson", "rate": 2800 },
      "dedicated_servers": 3
    }
  ],
  "fleet": { "hosts": 4 }
}`

// oversupplied swaps a scenario's homogeneous fleet for a host-class
// supply far past the planner's bound (a request body under 1 KB).
func oversupplied(scenario string) string {
	return strings.Replace(scenario, `"fleet": { "hosts": 4 }`,
		`"fleet": { "classes": [{ "preset": "amd", "count": 100000 }] }`, 1)
}

func TestPlanEndpoint(t *testing.T) {
	s := newTestServer(t)
	w := postPlan(t, s, `{"scenario": `+planScenario+`, "target": 0.05}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var p plan.Plan
	dec := json.NewDecoder(w.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		t.Fatalf("decoding plan: %v", err)
	}
	if p.Hosts <= 0 || p.Result.Loss > 0.05 || p.Mode != "consolidated" {
		t.Fatalf("degenerate plan: %+v", p)
	}
	if p.Result.Source != "analytic" {
		t.Fatalf("default evaluator = %s", p.Result.Source)
	}

	snap := s.Registry().Snapshot()
	if got := snap.Counters["serve/plans_run"]; got != 1 {
		t.Fatalf("serve/plans_run = %d, want 1", got)
	}
	if got := snap.Counters["serve/plan_evaluations"]; got == 0 {
		t.Fatal("serve/plan_evaluations did not count candidate scores")
	}
}

func TestPlanEndpointRejections(t *testing.T) {
	s := newTestServer(t)
	cases := []struct {
		name   string
		body   string
		status int
		code   string
	}{
		{"missing scenario", `{"target": 0.05}`, 400, CodeInvalidArgument},
		{"bad target", `{"scenario": ` + planScenario + `, "target": 1.5}`, 400, CodeInvalidArgument},
		{"zero target", `{"scenario": ` + planScenario + `, "target": 0}`, 400, CodeInvalidArgument},
		{"bad objective", `{"scenario": ` + planScenario + `, "target": 0.05, "objective": "max-profit"}`, 400, CodeInvalidArgument},
		{"bad evaluator", `{"scenario": ` + planScenario + `, "target": 0.05, "evaluator": "oracle"}`, 400, CodeInvalidArgument},
		{"negative iters", `{"scenario": ` + planScenario + `, "target": 0.05, "max_iters": -1}`, 400, CodeInvalidArgument},
		{"retired max_iters", `{"scenario": ` + planScenario + `, "target": 0.05, "max_iters": 200}`, 400, CodeInvalidArgument},
		{"retired seed", `{"scenario": ` + planScenario + `, "target": 0.05, "seed": 7}`, 400, CodeInvalidArgument},
		{"retired seed on a periods plan", `{"scenario": ` + periodsScenario + `, "target": 0.05, "seed": 7, "periods": {}}`, 400, CodeInvalidArgument},
		{"retired seed under sim", `{"scenario": ` + planScenario + `, "target": 0.05, "seed": -3, "evaluator": "sim"}`, 400, CodeInvalidArgument},
		{"unknown field", `{"scenario": ` + planScenario + `, "target": 0.05, "bogus": 1}`, 400, CodeInvalidArgument},
		{"scenario unknown field", `{"scenario": {"mode": "consolidated", "bogus": 1}, "target": 0.05}`, 400, CodeInvalidArgument},
		{"class supply above the planner's bound", `{"scenario": ` + oversupplied(planScenario) + `, "target": 0.05}`, 400, CodeInvalidArgument},
		{"closed-loop scenario", `{"scenario": {"mode": "consolidated",
			"services": [{"profile": {"preset": "tpcw-ebook"},
				"clients": 40, "think_time": {"kind": "exponential", "rate": 0.14},
				"dedicated_servers": 1}],
			"fleet": {"hosts": 2}}, "target": 0.05}`, 400, CodeInvalidArgument},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := postPlan(t, s, c.body)
			if w.Code != c.status {
				t.Fatalf("status %d, want %d; body %s", w.Code, c.status, w.Body.String())
			}
			got := decodeError(t, w)
			if got.Code != c.code {
				t.Fatalf("code %s, want %s", got.Code, c.code)
			}
			// The annealing search's knobs are retired, and the message
			// says so.
			if strings.HasPrefix(c.name, "retired") || c.name == "negative iters" {
				if !strings.Contains(got.Message, "were removed") {
					t.Fatalf("message %q does not name the removal", got.Message)
				}
			}
		})
	}

	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/plan", nil))
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET status %d", w.Code)
	}
}

const periodsScenario = `{
  "mode": "consolidated",
  "services": [
    {
      "profile": { "preset": "specweb-ecommerce" },
      "overhead": { "preset": "web" },
      "arrivals": { "kind": "poisson", "rate": 2800 },
      "dedicated_servers": 3
    }
  ],
  "fleet": { "hosts": 4 },
  "periods": {
    "bin_sec": 28800,
    "bins": [
      { "name": "off", "multiplier": 0.4 },
      { "name": "mid", "multiplier": 1.0 },
      { "name": "peak", "multiplier": 1.3 }
    ]
  }
}`

// A periods request returns a full multi-period schedule: per-bin plans
// in time order, consistent energy accounting, and the shared plan
// counters ticking.
func TestPlanEndpointPeriods(t *testing.T) {
	s := newTestServer(t)
	w := postPlan(t, s, `{"scenario": `+periodsScenario+`, "target": 0.05, "periods": {"migration_cost_wh": 12}}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var pp plan.PeriodPlan
	dec := json.NewDecoder(w.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&pp); err != nil {
		t.Fatalf("decoding period plan: %v", err)
	}
	if len(pp.Bins) != 3 || pp.MigrationCostWh != 12 || pp.Mode != "consolidated" {
		t.Fatalf("degenerate period plan: %+v", pp)
	}
	for _, b := range pp.Bins {
		if b.Hosts <= 0 || b.Result.Loss > 0.05 {
			t.Fatalf("bin %s: hosts=%d loss=%g", b.Name, b.Hosts, b.Result.Loss)
		}
	}
	if pp.TotalWh != pp.EnergyWh+pp.MigrationWh {
		t.Fatalf("totals inconsistent: %+v", pp)
	}
	snap := s.Registry().Snapshot()
	if got := snap.Counters["serve/plans_run"]; got != 1 {
		t.Fatalf("serve/plans_run = %d, want 1", got)
	}
	if got := snap.Counters["serve/plan_evaluations"]; got == 0 {
		t.Fatal("serve/plan_evaluations did not count period-plan scores")
	}
}

// The periods surface rejects malformed requests as structured 400s:
// bad costs, typos inside the periods block (the strict decoder is
// recursive), a periods block on a periods-free scenario, and a periods
// scenario without the periods block.
func TestPlanEndpointPeriodsRejections(t *testing.T) {
	s := newTestServer(t)
	cases := []struct {
		name string
		body string
	}{
		{"negative cost", `{"scenario": ` + periodsScenario + `, "target": 0.05, "periods": {"migration_cost_wh": -1}}`},
		{"unknown field in periods block", `{"scenario": ` + periodsScenario + `, "target": 0.05, "periods": {"migration_cost_wh": 12, "bogus": 1}}`},
		{"periods block without periods scenario", `{"scenario": ` + planScenario + `, "target": 0.05, "periods": {"migration_cost_wh": 12}}`},
		{"periods scenario without periods block", `{"scenario": ` + periodsScenario + `, "target": 0.05}`},
		{"class supply above the planner's bound", `{"scenario": ` + oversupplied(periodsScenario) + `, "target": 0.05, "periods": {"migration_cost_wh": 12}}`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := postPlan(t, s, c.body)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400; body %s", w.Code, w.Body.String())
			}
			if got := decodeError(t, w); got.Code != CodeInvalidArgument {
				t.Fatalf("code %s, want %s", got.Code, CodeInvalidArgument)
			}
		})
	}
}

// An undersized supply is a structured 422, distinguishable from a malformed
// request.
func TestPlanEndpointInfeasible(t *testing.T) {
	s := newTestServer(t)
	data, err := os.ReadFile(filepath.Join("testdata", "plan-infeasible-request.json"))
	if err != nil {
		t.Fatal(err)
	}
	w := postPlan(t, s, string(data))
	if w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if got := decodeError(t, w); got.Code != CodeInfeasible {
		t.Fatalf("code %s, want %s", got.Code, CodeInfeasible)
	}
}

// A served plan carries its length: a plan-day response, larger than the
// 2 KiB net/http buffers before it falls back to chunked encoding,
// arrives over a real connection with Content-Length equal to its body,
// no Transfer-Encoding, and the CLI golden's bytes compacted. A plan that
// holds NaN still gets the structured 500.
func TestServedPlanResponse(t *testing.T) {
	s := newTestServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()
	day, err := os.ReadFile(filepath.Join("..", "..", "examples", "scenarios", "periods-day.json"))
	if err != nil {
		t.Fatal(err)
	}
	req, err := json.Marshal(PlanRequest{Scenario: day, Target: 0.05, Periods: &PlanPeriods{MigrationCostWh: 12}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/plan", "application/json", bytes.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if len(body) <= 2048 {
		t.Fatalf("a %d-byte response fits the net/http buffer; the case needs a larger one", len(body))
	}
	if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) > 0 {
		t.Fatalf("Content-Length %d and Transfer-Encoding %v for a %d-byte body", resp.ContentLength, resp.TransferEncoding, len(body))
	}
	golden, err := os.ReadFile(filepath.Join("..", "..", "cmd", "consolidate", "testdata", "golden", "plan-periods.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := json.Compact(&want, golden); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Fatalf("served plan-day response\n%s\nis not the CLI golden compacted\n%s", body, want.Bytes())
	}

	nan := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.writeAppended(w, plan.Plan{Result: eval.Result{Loss: math.NaN()}})
	}))
	defer nan.Close()
	resp, err = http.Get(nan.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	want.Reset()
	want.WriteString(`{"error":{"code":"internal","message":"encoding response: json: unsupported value: NaN"}}`)
	if resp.StatusCode != http.StatusInternalServerError || !bytes.Equal(body, want.Bytes()) {
		t.Fatalf("NaN plan: status %d body %s, want 500 %s", resp.StatusCode, body, want.Bytes())
	}
}
