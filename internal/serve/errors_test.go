package serve

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

// Every error body is the json.Marshal encoding of the code and message
// it carries, so it is valid JSON whatever bytes the message echoes:
// control bytes and invalid UTF-8 in query values and keys on the GET
// routes, and in JSON keys and values on the POST routes.
func TestErrorBodiesAreJSON(t *testing.T) {
	s := newTestServer(t)
	// plan is a one-service request on two host classes; capability is the
	// second class's capability members and extra trails the target.
	plan := func(capability, extra string) string {
		return `{"scenario":{"mode":"consolidated",` +
			`"services":[{"profile":{"preset":"specweb-ecommerce"},"arrivals":{"kind":"poisson","rate":280}}],` +
			`"fleet":{"classes":[{"preset":"amd","count":4},{"name":"x","count":2,"capability":{` + capability + `}}]}},` +
			`"target":0.05` + extra + `}`
	}
	sweep := func(path string) string {
		return `{"base":{"mode":"consolidated",` +
			`"services":[{"profile":{"preset":"specweb-ecommerce"},"arrivals":{"kind":"poisson","rate":280}}],` +
			`"fleet":{"hosts":2},"horizon":12},"axes":[{"path":"` + path + `","values":[2]}]}`
	}
	const unknownField = "decoding request body: json: unknown field "
	cases := []struct {
		name, method, target, body string
		message                    string // the code is invalid_argument
	}{
		{"query value control", "GET", "/v1/servers?rho=%07&target=0.01", "", `rho: not a number: "\a"`},
		{"query value invalid utf-8", "GET", "/v1/servers?rho=5&target=%FF", "", `target: not a number: "\xff"`},
		{"query value NUL", "GET", "/v1/loss?n=%00&rho=5", "", `n: not an integer: "\x00"`},
		{"query key escaped control", "GET", "/v1/loss?n=8&rho=5&%07=1", "", `unknown parameter "%07"`},
		{"query key invalid utf-8", "GET", "/v1/loss?n=8&rho=5&\xff=1", "", `unknown parameter "\xff"`},
		{"query key invalid utf-8, bad escape", "GET", "/v1/loss?n=8&rho=5&\xff=%zz", "", `malformed query escape in "\xff"`},
		{"json key control", "POST", "/v1/plan", plan(`"\u0007":-1`, ""), `fleet class 1: scenario: invalid: host class capability["\a"] = -1`},
		{"json key invalid utf-8", "POST", "/v1/plan", plan("\"\xff\":-1", ""), `fleet class 1: scenario: invalid: host class capability["` + "�" + `"] = -1`},
		{"unknown json key control", "POST", "/v1/plan", plan(`"cpu":1`, `,"\u0007":1`), unknownField + `"\a"`},
		{"unknown json key invalid utf-8", "POST", "/v1/plan", plan(`"cpu":1`, ",\"\xff\":1"), unknownField + `"` + "�" + `"`},
		{"json value control", "POST", "/v1/plan", plan(`"cpu":1`, `,"objective":"\u0007"`), `objective "\a" (want "min-servers" or "min-power")`},
		{"json value invalid utf-8", "POST", "/v1/plan", plan(`"cpu":1`, ",\"objective\":\"\xff\""), `objective "` + "�" + `" (want "min-servers" or "min-power")`},
		{"batch key control", "POST", "/v1/batch", `{"queries":[],"\u001f":1}`, unknownField + `"\x1f"`},
		{"sweep value control", "POST", "/v1/sweep", sweep(`\u0007`), `sweep: invalid spec: axis "\a": unknown field "\a" in Scenario`},
		{"sweep value invalid utf-8", "POST", "/v1/sweep", sweep("\xff"), `sweep: invalid spec: axis "` + "�" + `": unknown field "` + "�" + `" in Scenario`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := httptest.NewRecorder()
			s.ServeHTTP(w, httptest.NewRequest(c.method, c.target, strings.NewReader(c.body)))
			want, err := json.Marshal(ErrorResponse{Error: ErrorBody{Code: CodeInvalidArgument, Message: c.message}})
			if err != nil {
				t.Fatal(err)
			}
			if w.Code != 400 || !bytes.Equal(w.Body.Bytes(), want) {
				t.Errorf("status %d, body %s (valid JSON: %v)\nwant 400, body %s", w.Code, w.Body, json.Valid(w.Body.Bytes()), want)
			}
		})
	}
}
