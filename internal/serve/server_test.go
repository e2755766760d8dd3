package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/erlang"
)

func newTestServer(t *testing.T, mutate ...func(*Config)) *Server {
	t.Helper()
	cfg := Config{
		// Keep startup cheap in tests; individual tests preheat what they
		// need.
		PreheatRhos:    []float64{5, 120},
		PreheatServers: 256,
	}
	for _, m := range mutate {
		m(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func get(t *testing.T, s *Server, target string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest("GET", target, nil))
	return w
}

func post(t *testing.T, s *Server, target, body string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest("POST", target, strings.NewReader(body)))
	return w
}

// decodeError asserts the body is exactly the structured error shape and
// returns it.
func decodeError(t *testing.T, w *httptest.ResponseRecorder) ErrorBody {
	t.Helper()
	var resp ErrorResponse
	dec := json.NewDecoder(bytes.NewReader(w.Body.Bytes()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&resp); err != nil {
		t.Fatalf("response is not the structured error shape: %v\nbody: %s", err, w.Body.String())
	}
	if resp.Error.Code == "" {
		t.Fatalf("error response has empty code: %s", w.Body.String())
	}
	return resp.Error
}

func TestServersEndpoint(t *testing.T) {
	s := newTestServer(t)
	for _, tc := range []struct {
		rho, target float64
	}{
		{5, 0.01}, {120, 0.001}, {0.5, 0.1}, {1000, 1e-6}, {0, 0.01},
	} {
		w := get(t, s, fmt.Sprintf("/v1/servers?rho=%g&target=%g", tc.rho, tc.target))
		if w.Code != 200 {
			t.Fatalf("rho=%g target=%g: status %d, body %s", tc.rho, tc.target, w.Code, w.Body.String())
		}
		if ct := w.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("Content-Type = %q", ct)
		}
		var resp struct {
			Rho, Target, Loss, Utilization float64
			Servers                        int
		}
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("bad response JSON: %v: %s", err, w.Body.String())
		}
		wantN, err := erlang.Servers(tc.rho, tc.target, 0)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Servers != wantN {
			t.Errorf("servers(rho=%g, target=%g) = %d, want %d", tc.rho, tc.target, resp.Servers, wantN)
		}
		wantLoss := erlang.MustB(wantN, tc.rho)
		if resp.Loss != wantLoss {
			t.Errorf("loss = %g, want %g", resp.Loss, wantLoss)
		}
	}
}

func TestLossEndpoint(t *testing.T) {
	s := newTestServer(t)
	w := get(t, s, "/v1/loss?n=8&rho=5")
	if w.Code != 200 {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var resp struct {
		N                                  int
		Rho, Loss, Carried, Utilization, W float64
		Wait                               float64
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad response JSON: %v: %s", err, w.Body.String())
	}
	if want := erlang.MustB(8, 5); resp.Loss != want {
		t.Errorf("loss = %g, want %g", resp.Loss, want)
	}
	wantWait, _ := erlang.C(8, 5)
	if resp.Wait != wantWait {
		t.Errorf("wait = %g, want %g", resp.Wait, wantWait)
	}
	if want := 5 * (1 - resp.Loss); resp.Carried != want {
		t.Errorf("carried = %g, want %g", resp.Carried, want)
	}
	if want := resp.Carried / 8; resp.Utilization != want {
		t.Errorf("utilization = %g, want %g", resp.Utilization, want)
	}

	// n=0 is a valid (degenerate) pool: everything is lost.
	w = get(t, s, "/v1/loss?n=0&rho=5")
	if w.Code != 200 {
		t.Fatalf("n=0 status %d: %s", w.Code, w.Body.String())
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Loss != 1 || resp.Utilization != 0 {
		t.Errorf("n=0: loss=%g util=%g, want 1 and 0", resp.Loss, resp.Utilization)
	}

	// Far past the memo's prefix cap the direct recursion answers, and it
	// stops once B underflows to 0 instead of stepping a billion servers.
	// The utilization prints in encoding/json's form, as /v1/batch does.
	w = get(t, s, "/v1/loss?n=1000000000&rho=5")
	want := `{"n":1000000000,"rho":5,"loss":0,"carried":5,"utilization":5e-9,"wait":0}`
	if w.Code != 200 || w.Body.String() != want {
		t.Errorf("n=1e9: status %d body %s, want %s", w.Code, w.Body.String(), want)
	}
}

// TestQueryEdgeCases drives every malformed single-query shape through the
// full handler stack: each must produce the structured error, the right
// status, and never a 200.
func TestQueryEdgeCases(t *testing.T) {
	s := newTestServer(t)
	cases := []struct {
		name, target string
		wantStatus   int
		wantCode     string
	}{
		{"missing params", "/v1/servers", 400, CodeInvalidArgument},
		{"missing target", "/v1/servers?rho=5", 400, CodeInvalidArgument},
		{"bad float", "/v1/servers?rho=abc&target=0.01", 400, CodeInvalidArgument},
		{"unknown param", "/v1/servers?rho=5&target=0.01&bogus=1", 400, CodeInvalidArgument},
		{"duplicate param", "/v1/servers?rho=5&rho=6&target=0.01", 400, CodeInvalidArgument},
		{"target zero", "/v1/servers?rho=5&target=0", 400, CodeInvalidArgument},
		{"target one", "/v1/servers?rho=5&target=1", 400, CodeInvalidArgument},
		{"target above one", "/v1/servers?rho=5&target=1.5", 400, CodeInvalidArgument},
		{"target negative", "/v1/servers?rho=5&target=-0.1", 400, CodeInvalidArgument},
		{"target NaN", "/v1/servers?rho=5&target=NaN", 400, CodeInvalidArgument},
		{"negative rho", "/v1/servers?rho=-5&target=0.01", 400, CodeInvalidArgument},
		{"rho Inf", "/v1/servers?rho=Inf&target=0.01", 400, CodeInvalidArgument},
		{"loss missing n", "/v1/loss?rho=5", 400, CodeInvalidArgument},
		{"loss bad n", "/v1/loss?n=2.5&rho=5", 400, CodeInvalidArgument},
		{"loss negative n", "/v1/loss?n=-1&rho=5", 400, CodeInvalidArgument},
		{"loss rejects target", "/v1/loss?n=3&rho=5&target=0.01", 400, CodeInvalidArgument},
		{"bad escape", "/v1/servers?rho=%zz&target=0.01", 400, CodeInvalidArgument},
		{"unknown endpoint", "/v1/nope", 404, CodeNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := get(t, s, tc.target)
			if w.Code != tc.wantStatus {
				t.Fatalf("status %d, want %d; body %s", w.Code, tc.wantStatus, w.Body.String())
			}
			if e := decodeError(t, w); e.Code != tc.wantCode {
				t.Errorf("code %q, want %q (message %q)", e.Code, tc.wantCode, e.Message)
			}
		})
	}
}

func TestMethodNotAllowed(t *testing.T) {
	s := newTestServer(t)
	for _, tc := range []struct{ method, path string }{
		{"POST", "/v1/servers"},
		{"DELETE", "/v1/loss"},
		{"GET", "/v1/batch"},
		{"PUT", "/v1/sweep"},
	} {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(tc.method, tc.path, strings.NewReader("{}")))
		if w.Code != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want 405", tc.method, tc.path, w.Code)
		}
		if e := decodeError(t, w); e.Code != CodeMethodNotAllowed {
			t.Errorf("%s %s: code %q", tc.method, tc.path, e.Code)
		}
	}
}

func TestBatchEndpoint(t *testing.T) {
	s := newTestServer(t)
	body := `{"queries":[
		{"kind":"servers","rho":120,"target":0.001},
		{"kind":"loss","n":8,"rho":5},
		{"kind":"traffic","n":8,"target":0.01},
		{"kind":"utilization","n":8,"rho":5},
		{"kind":"servers","rho":-1,"target":0.01},
		{"kind":"frobnicate"}
	]}`
	w := post(t, s, "/v1/batch", body)
	if w.Code != 200 {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var resp BatchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 6 {
		t.Fatalf("got %d results, want 6", len(resp.Results))
	}
	wantN, _ := erlang.Servers(120, 0.001, 0)
	if resp.Results[0].Servers == nil || *resp.Results[0].Servers != wantN {
		t.Errorf("servers result = %v, want %d", resp.Results[0].Servers, wantN)
	}
	if resp.Results[1].Loss == nil || *resp.Results[1].Loss != erlang.MustB(8, 5) {
		t.Errorf("loss result = %v, want %g", resp.Results[1].Loss, erlang.MustB(8, 5))
	}
	wantT, _ := erlang.Traffic(8, 0.01)
	if resp.Results[2].Traffic == nil || *resp.Results[2].Traffic != wantT {
		t.Errorf("traffic result = %v, want %g", resp.Results[2].Traffic, wantT)
	}
	wantU, _ := erlang.Utilization(8, 5)
	if resp.Results[3].Utilization == nil || *resp.Results[3].Utilization != wantU {
		t.Errorf("utilization result = %v, want %g", resp.Results[3].Utilization, wantU)
	}
	for i := 4; i < 6; i++ {
		if resp.Results[i].Error == nil || resp.Results[i].Error.Code != CodeInvalidArgument {
			t.Errorf("result %d: error = %+v, want invalid_argument", i, resp.Results[i].Error)
		}
	}
}

func TestBatchEdgeCases(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.MaxBodyBytes = 512
		c.MaxBatchQueries = 4
	})
	cases := []struct {
		name, body string
		wantStatus int
		wantCode   string
	}{
		{"malformed JSON", `{"queries":[`, 400, CodeInvalidArgument},
		{"not JSON at all", `hello`, 400, CodeInvalidArgument},
		{"zero queries", `{"queries":[]}`, 400, CodeInvalidArgument},
		{"queries missing", `{}`, 400, CodeInvalidArgument},
		{"unknown field", `{"queries":[{"kind":"loss","n":1,"rho":1}],"wat":1}`, 400, CodeInvalidArgument},
		{"too many queries", `{"queries":[{"kind":"loss","n":1,"rho":1},{"kind":"loss","n":1,"rho":1},{"kind":"loss","n":1,"rho":1},{"kind":"loss","n":1,"rho":1},{"kind":"loss","n":1,"rho":1}]}`, 400, CodeInvalidArgument},
		{"body too large", `{"queries":[` + strings.Repeat(`{"kind":"loss","n":1,"rho":1},`, 40) + `{"kind":"loss","n":1,"rho":1}]}`, 413, CodeBodyTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := post(t, s, "/v1/batch", tc.body)
			if w.Code != tc.wantStatus {
				t.Fatalf("status %d, want %d; body %s", w.Code, tc.wantStatus, w.Body.String())
			}
			if e := decodeError(t, w); e.Code != tc.wantCode {
				t.Errorf("code %q, want %q (message %q)", e.Code, tc.wantCode, e.Message)
			}
		})
	}
}

// smokeSweepSpec is a 2-point, short-horizon sweep cheap enough for unit
// tests; the golden fixtures use the same file.
func smokeSweepSpec(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile("testdata/sweep-request.json")
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestSweepEndpoint(t *testing.T) {
	s := newTestServer(t)
	w := post(t, s, "/v1/sweep", smokeSweepSpec(t))
	if w.Code != 200 {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var resp SweepResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Size != 2 || len(resp.Points) != 2 {
		t.Fatalf("size %d / %d points, want 2", resp.Size, len(resp.Points))
	}
	for i, p := range resp.Points {
		if p.Index != i {
			t.Errorf("point %d has index %d", i, p.Index)
		}
		if p.Result.Replications == 0 {
			t.Errorf("point %d ran zero replications", i)
		}
		if p.Result.Hosts == 0 {
			t.Errorf("point %d reports zero hosts", i)
		}
	}

	// The same spec twice must answer identically (determinism contract).
	w2 := post(t, s, "/v1/sweep", smokeSweepSpec(t))
	if w2.Code != 200 {
		t.Fatalf("second run status %d", w2.Code)
	}
	if !bytes.Equal(w.Body.Bytes(), w2.Body.Bytes()) {
		t.Error("identical sweep requests produced different responses")
	}
}

func TestSweepEdgeCases(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.MaxSweepPoints = 4 })
	cases := []struct {
		name, body string
		wantStatus int
		wantCode   string
	}{
		{"malformed JSON", `{"base"`, 400, CodeInvalidArgument},
		{"unknown field", `{"basis":{}}`, 400, CodeInvalidArgument},
		{"invalid base", `{"base":{"services":[]}}`, 400, CodeInvalidArgument},
		{"axis without values", `{"base":{"services":[{"profile":{"preset":"specweb-ecommerce"},"arrivals":{"kind":"poisson","rate":10},"dedicated_servers":1}],"fleet":{"hosts":1}},"axes":[{"path":"fleet.hosts","values":[]}]}`, 400, CodeInvalidArgument},
		{"too many points", `{"base":{"services":[{"profile":{"preset":"specweb-ecommerce"},"arrivals":{"kind":"poisson","rate":10},"dedicated_servers":1}],"fleet":{"hosts":1}},"axes":[{"path":"fleet.hosts","values":[1,2,3,4,5]}]}`, 400, CodeInvalidArgument},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := post(t, s, "/v1/sweep", tc.body)
			if w.Code != tc.wantStatus {
				t.Fatalf("status %d, want %d; body %s", w.Code, tc.wantStatus, w.Body.String())
			}
			if e := decodeError(t, w); e.Code != tc.wantCode {
				t.Errorf("code %q, want %q (message %q)", e.Code, tc.wantCode, e.Message)
			}
		})
	}
}

// TestSweepCanceledMidRun cancels the request context while the sweep is
// running: the handler must answer with the structured canceled error (on
// the recorder — the real client is gone), not panic and not 200.
func TestSweepCanceledMidRun(t *testing.T) {
	s := newTestServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest("POST", "/v1/sweep", strings.NewReader(smokeSweepSpec(t))).WithContext(ctx)
	w := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.ServeHTTP(w, req)
	}()
	cancel()
	<-done
	if w.Code != statusCanceledClient {
		t.Fatalf("status %d, want %d; body %s", w.Code, statusCanceledClient, w.Body.String())
	}
	if e := decodeError(t, w); e.Code != CodeCanceled {
		t.Errorf("code %q, want %q", e.Code, CodeCanceled)
	}

	// The server must stay fully serviceable afterwards.
	if w := get(t, s, "/v1/servers?rho=5&target=0.01"); w.Code != 200 {
		t.Errorf("server unhealthy after canceled sweep: %d", w.Code)
	}
}

// TestSweepTimeout arms a tiny request timeout: the sweep must come back
// as 504 deadline_exceeded.
func TestSweepTimeout(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.RequestTimeout = time.Nanosecond })
	w := post(t, s, "/v1/sweep", smokeSweepSpec(t))
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504; body %s", w.Code, w.Body.String())
	}
	if e := decodeError(t, w); e.Code != CodeDeadlineExceeded {
		t.Errorf("code %q, want %q", e.Code, CodeDeadlineExceeded)
	}
}

func TestHealthAndReadiness(t *testing.T) {
	s := newTestServer(t)
	if w := get(t, s, "/healthz"); w.Code != 200 || w.Body.String() != `{"status":"ok"}` {
		t.Errorf("healthz: %d %s", w.Code, w.Body.String())
	}
	if w := get(t, s, "/readyz"); w.Code != 200 {
		t.Errorf("readyz while ready: %d", w.Code)
	}
	s.SetReady(false)
	if w := get(t, s, "/readyz"); w.Code != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining: %d, want 503", w.Code)
	}
	// Draining only affects the probe — queries still answer.
	if w := get(t, s, "/v1/servers?rho=5&target=0.01"); w.Code != 200 {
		t.Errorf("query while draining: %d", w.Code)
	}
	s.SetReady(true)
	if w := get(t, s, "/readyz"); w.Code != 200 {
		t.Errorf("readyz after re-ready: %d", w.Code)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(t)
	get(t, s, "/v1/servers?rho=5&target=0.01")
	get(t, s, "/v1/servers?rho=5&target=0.01")
	get(t, s, "/v1/loss?n=2&rho=1")
	w := get(t, s, "/metrics")
	if w.Code != 200 {
		t.Fatalf("metrics status %d", w.Code)
	}
	var snap struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if got := snap.Counters["http/servers/requests"]; got != 2 {
		t.Errorf("http/servers/requests = %d, want 2", got)
	}
	if got := snap.Counters["http/loss/requests"]; got != 1 {
		t.Errorf("http/loss/requests = %d, want 1", got)
	}
	if _, ok := snap.Counters["serve/memo_hits"]; !ok {
		t.Error("memo metrics missing from snapshot")
	}
}

// TestServeQueryAllocations pins the full single-query serve path —
// router, middleware, parse, memo, JSON encode — at zero allocations
// once the memo is warm.
func TestServeQueryAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates on instrumented paths; the bench gate pins allocs in the normal build")
	}
	s := newTestServer(t)
	req := &http.Request{Method: "GET", URL: &url.URL{Path: "/v1/servers", RawQuery: "rho=120&target=0.001"}}
	lossReq := &http.Request{Method: "GET", URL: &url.URL{Path: "/v1/loss", RawQuery: "n=140&rho=120"}}
	w := &nullResponseWriter{h: http.Header{}}
	s.ServeHTTP(w, req) // warm memo, pools and header map
	s.ServeHTTP(w, lossReq)
	if w.status != 200 {
		t.Fatalf("warmup status %d", w.status)
	}
	allocs := testing.AllocsPerRun(2000, func() {
		s.ServeHTTP(w, req)
		s.ServeHTTP(w, lossReq)
	})
	if allocs != 0 {
		t.Errorf("hot serve path allocates %v allocs per two requests, want 0", allocs)
	}
}

// nullResponseWriter is a preallocated ResponseWriter for allocation
// tests and benchmarks.
type nullResponseWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *nullResponseWriter) Header() http.Header { return w.h }
func (w *nullResponseWriter) WriteHeader(c int)   { w.status = c }
func (w *nullResponseWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// A GET answer and the same query answered through /v1/batch print every
// number alike, in encoding/json's form: at rho = 1e6, where strconv's
// 'g' form would print 1e+06, and at a loss between 1e-6 and 1e-4, where
// it would print an exponent.
func TestGetAndBatchNumbersAgree(t *testing.T) {
	s := newTestServer(t)
	for _, tc := range []struct {
		get   string
		query Query
	}{
		{"/v1/servers?rho=1000000&target=0.01", Query{Kind: "servers", Rho: 1e6, Target: 0.01}},
		{"/v1/loss?n=1000000&rho=1000000", Query{Kind: "loss", N: 1e6, Rho: 1e6}},
		{"/v1/loss?n=17&rho=5", Query{Kind: "loss", N: 17, Rho: 5}},
	} {
		w := get(t, s, tc.get)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.get, w.Code, w.Body.String())
		}
		var got map[string]json.RawMessage
		if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(BatchRequest{Queries: []Query{tc.query}})
		if err != nil {
			t.Fatal(err)
		}
		bw := post(t, s, "/v1/batch", string(body))
		if bw.Code != http.StatusOK {
			t.Fatalf("batch %+v: status %d: %s", tc.query, bw.Code, bw.Body.String())
		}
		var batch struct {
			Results []map[string]json.RawMessage `json:"results"`
		}
		if err := json.Unmarshal(bw.Body.Bytes(), &batch); err != nil {
			t.Fatal(err)
		}
		want := batch.Results[0]
		var echo map[string]json.RawMessage
		if err := json.Unmarshal(want["query"], &echo); err != nil {
			t.Fatal(err)
		}
		for field, raw := range got {
			ref, ok := want[field]
			if !ok {
				ref, ok = echo[field]
			}
			if !ok {
				t.Fatalf("%s: field %q missing from the batch answer %s", tc.get, field, bw.Body.String())
			}
			if string(raw) != string(ref) {
				t.Errorf("%s: %s = %s, batch prints %s", tc.get, field, raw, ref)
			}
		}
		if tc.query.N == 17 {
			var loss float64
			if err := json.Unmarshal(got["loss"], &loss); err != nil || !(loss > 1e-6 && loss < 1e-4) {
				t.Fatalf("loss %s (%v): the case must lie between 1e-6 and 1e-4", got["loss"], err)
			}
		}
	}
}
