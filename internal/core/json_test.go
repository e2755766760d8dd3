package core

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

const jsonSpec = `{
  "lossTarget": 0.05,
  "form": "harmonic",
  "utilizationScale": 0.8,
  "power": {"base": 250, "max": 340},
  "services": [
    {
      "name": "web",
      "arrivalRate": 1280,
      "servingRates":  {"diskio": 1420, "cpu": 3360},
      "impactFactors": {"diskio": 0.98, "cpu": 0.63}
    },
    {
      "name": "db",
      "arrivalRate": 90,
      "servingRates": {"cpu": 100}
    }
  ]
}`

func TestParseJSON(t *testing.T) {
	m, err := ParseJSONBytes([]byte(jsonSpec))
	if err != nil {
		t.Fatal(err)
	}
	if m.LossTarget != 0.05 || m.Form != TrafficHarmonic || m.UtilizationScale != 0.8 {
		t.Fatalf("model header: %+v", m)
	}
	if m.Power.Base != 250 || m.Power.Max != 340 {
		t.Fatalf("power: %+v", m.Power)
	}
	if len(m.Services) != 2 {
		t.Fatalf("services: %d", len(m.Services))
	}
	if m.Services[0].ServingRates[DiskIO] != 1420 ||
		m.Services[0].ImpactFactors[CPU] != 0.63 {
		t.Fatal("service maps lost")
	}
	if m.Services[1].ImpactFactors != nil {
		t.Fatal("absent impact factors should stay nil")
	}
	if _, err := m.Solve(); err != nil {
		t.Fatal(err)
	}
}

func TestParseJSONErrors(t *testing.T) {
	cases := []struct {
		name string
		spec string
	}{
		{"garbage", "nope"},
		{"unknown field", `{"lossTarget":0.05,"bogus":1,"services":[]}`},
		{"bad form", strings.Replace(jsonSpec, "harmonic", "psychic", 1)},
		{"invalid model", `{"lossTarget":0.05,"services":[]}`},
		{"loss out of range", strings.Replace(jsonSpec, "0.05", "7", 1)},
		{"trailing data", jsonSpec + "{}"},
	}
	for _, c := range cases {
		if _, err := ParseJSONBytes([]byte(c.spec)); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	orig, err := ParseJSONBytes([]byte(jsonSpec))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ParseJSONBytes(buf.Bytes())
	if err != nil {
		t.Fatalf("round-trip parse: %v\n%s", err, buf.String())
	}
	// The two models must solve identically.
	a, err := orig.Solve()
	if err != nil {
		t.Fatal(err)
	}
	b, err := back.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if a.Dedicated.Servers != b.Dedicated.Servers ||
		a.Consolidated.Servers != b.Consolidated.Servers {
		t.Fatalf("round-trip changed the plan: %v vs %v", a, b)
	}
	if math.Abs(a.PowerSaving-b.PowerSaving) > 1e-12 {
		t.Fatal("round-trip changed power")
	}
	if back.Form != TrafficHarmonic {
		t.Fatal("form lost in round trip")
	}
}

func TestWriteJSONDefaultFormOmitted(t *testing.T) {
	m := caseStudyModel(100, 10, 0.05)
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `"form"`) {
		t.Fatalf("default form serialized:\n%s", buf.String())
	}
	// Resources list survives.
	if !strings.Contains(buf.String(), `"resources"`) {
		t.Fatal("resources dropped")
	}
}

func TestWriteJSONInvalidModel(t *testing.T) {
	var buf bytes.Buffer
	if err := (&Model{}).WriteJSON(&buf); err == nil {
		t.Fatal("invalid model serialized")
	}
}
