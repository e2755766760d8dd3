package serve

import (
	"bytes"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden response fixtures")

// goldenCases are the committed response fixtures. The CI serve-smoke job
// curls the same requests against a running binary and byte-diffs against
// the same files, so this test is the local proof that the goldens are
// current. Bodies must therefore be fully deterministic: no timestamps,
// no map iteration, no cache-state dependence (a fresh server never
// reports cache hits).
var goldenCases = []struct {
	name     string
	method   string
	target   string
	bodyFile string // request body file for POSTs, relative to testdata/
	status   int
	golden   string
}{
	{"servers", "GET", "/v1/servers?rho=120&target=0.001", "", 200, "servers.json"},
	{"loss", "GET", "/v1/loss?n=8&rho=5", "", 200, "loss.json"},
	{"batch", "POST", "/v1/batch", "batch-request.json", 200, "batch.json"},
	{"sweep", "POST", "/v1/sweep", "sweep-request.json", 200, "sweep.json"},
	{"plan", "POST", "/v1/plan", "plan-request.json", 200, "plan.json"},
	{"plan-infeasible", "POST", "/v1/plan", "plan-infeasible-request.json", 422, "error-plan-infeasible.json"},
	{"plan-periods", "POST", "/v1/plan", "plan-periods-request.json", 200, "plan-periods.json"},
	{"plan-periods-unknown", "POST", "/v1/plan", "plan-periods-unknown-request.json", 400, "error-plan-periods-unknown.json"},
	{"plan-periods-infeasible", "POST", "/v1/plan", "plan-periods-infeasible-request.json", 422, "error-plan-periods-infeasible.json"},
	{"plan-capability-control-byte", "POST", "/v1/plan", "plan-capability-request.json", 400, "error-plan-capability.json"},
	{"bad-target", "GET", "/v1/servers?rho=5&target=2", "", 400, "error-bad-target.json"},
	{"healthz", "GET", "/healthz", "", 200, "healthz.json"},
}

func TestGoldenResponses(t *testing.T) {
	s := newTestServer(t)
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			var body *strings.Reader
			if tc.bodyFile != "" {
				data, err := os.ReadFile(filepath.Join("testdata", tc.bodyFile))
				if err != nil {
					t.Fatal(err)
				}
				body = strings.NewReader(string(data))
			} else {
				body = strings.NewReader("")
			}
			w := httptest.NewRecorder()
			s.ServeHTTP(w, httptest.NewRequest(tc.method, tc.target, body))
			if w.Code != tc.status {
				t.Fatalf("status %d, want %d; body %s", w.Code, tc.status, w.Body.String())
			}
			path := filepath.Join("testdata", "golden", tc.golden)
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, w.Body.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run go test ./internal/serve -run TestGolden -update): %v", err)
			}
			if !bytes.Equal(w.Body.Bytes(), want) {
				t.Errorf("response differs from golden %s:\ngot:  %s\nwant: %s", path, w.Body.String(), want)
			}
		})
	}
}
