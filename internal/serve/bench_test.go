package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"testing"
)

// BenchmarkServeQuery measures the full single-query serve path — route
// lookup, metrics middleware, raw-query parse, memoized Erlang lookup and
// append-style JSON encoding — against a warm memo. The simbench/benchdiff
// gate holds this at 0 allocs/op: any allocation on this path is a
// regression, not noise.
func BenchmarkServeQuery(b *testing.B) {
	s, err := New(Config{PreheatRhos: []float64{120}, PreheatServers: 1024})
	if err != nil {
		b.Fatal(err)
	}
	req := &http.Request{Method: "GET", URL: &url.URL{Path: "/v1/servers", RawQuery: "rho=120&target=0.001"}}
	w := &nullResponseWriter{h: http.Header{}}
	s.ServeHTTP(w, req) // warm pools and the header map
	if w.status != 200 {
		b.Fatalf("warmup status %d", w.status)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ServeHTTP(w, req)
	}
}

// BenchmarkServeLoss covers the fixed-pool companion endpoint.
func BenchmarkServeLoss(b *testing.B) {
	s, err := New(Config{PreheatRhos: []float64{120}, PreheatServers: 1024})
	if err != nil {
		b.Fatal(err)
	}
	req := &http.Request{Method: "GET", URL: &url.URL{Path: "/v1/loss", RawQuery: "n=140&rho=120"}}
	w := &nullResponseWriter{h: http.Header{}}
	s.ServeHTTP(w, req)
	if w.status != 200 {
		b.Fatalf("warmup status %d", w.status)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ServeHTTP(w, req)
	}
}

// rewindBody is a request body the benchmark rewinds between requests, so
// one *http.Request serves every iteration.
type rewindBody struct{ *bytes.Reader }

func (rewindBody) Close() error { return nil }

// BenchmarkServePlan measures POST /v1/plan through the full ServeHTTP
// stack in process — body limit, strict decode, the planner on the
// analytic kernel, JSON encoding — on the two planner workloads the
// end-to-end benchmark runs: plan-hetero (the testdata request, min-power
// over a host-class supply) and plan-day (the periods-day example at
// target 0.05 with 12 Wh per VM move). It is the POST /v1/plan rung of
// the analytic ladder, between plan.Search and the load harness.
func BenchmarkServePlan(b *testing.B) {
	hetero, err := os.ReadFile(filepath.Join("testdata", "plan-request.json"))
	if err != nil {
		b.Fatal(err)
	}
	day, err := os.ReadFile(filepath.Join("..", "..", "examples", "scenarios", "periods-day.json"))
	if err != nil {
		b.Fatal(err)
	}
	dayReq, err := json.Marshal(PlanRequest{Scenario: day, Target: 0.05, Periods: &PlanPeriods{MigrationCostWh: 12}})
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		body []byte
	}{{"plan-hetero", hetero}, {"plan-day", dayReq}} {
		b.Run(bc.name, func(b *testing.B) {
			s, err := New(Config{})
			if err != nil {
				b.Fatal(err)
			}
			body := rewindBody{bytes.NewReader(bc.body)}
			req := &http.Request{Method: "POST", URL: &url.URL{Path: "/v1/plan"}, Header: http.Header{}}
			w := &nullResponseWriter{h: http.Header{}}
			serve := func() {
				body.Reset(bc.body)
				req.Body = body
				s.ServeHTTP(w, req)
			}
			serve() // grow the Erlang memo and warm the pools
			if w.status != 200 {
				b.Fatalf("warmup status %d", w.status)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serve()
			}
		})
	}
}
