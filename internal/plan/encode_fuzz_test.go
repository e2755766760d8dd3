package plan_test

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/eval"
	"repro/internal/plan"
)

// FuzzAppendJSON holds the plan encoders to encoding/json: for a Plan and
// a PeriodPlan built from fuzzed names, numbers and shapes, AppendJSON
// must equal json.Marshal byte for byte, or both must fail with the same
// error, and EncodeJSON must equal json.MarshalIndent plus a newline. The
// seeds cover names with <>&, U+2028/U+2029, control bytes and invalid
// UTF-8, and numbers across the 1e-6 and 1e21 form boundaries, ±0,
// subnormals, integers on both sides of 2⁵³, NaN and ±Inf. A result's
// last service has the result's own loss, and a bin's energy its
// result's watts, and a third bin repeats the first's result, whose
// printed bytes the encoders reuse.
func FuzzAppendJSON(f *testing.F) {
	names := []string{"", "amd", "<a&b>", "line\u2028para\u2029", "ctl\x00\x01\x1f\x7f\"\\\b\f\n\r\t", "bad\xff\xfeutf8\xc3", "\u00e9\u2603\U0001F600"}
	floats := []float64{0, math.Copysign(0, -1), 1e-6, math.Nextafter(1e-6, 0), 1e21, math.Nextafter(1e21, 0), 1e-7, 1e-300, 5e-324, math.SmallestNonzeroFloat64 * 3, 123456789.125, -2.5e-9, 1.7976931348623157e308, 3600, -42, 1<<53 - 1, -(1<<53 - 1), 1 << 53, 1<<53 + 2, math.NaN(), math.Inf(1), math.Inf(-1)}
	for i, name := range names {
		for j := range floats {
			f.Add(name, names[(i+j)%len(names)], floats[j], floats[(j+5)%len(floats)], floats[(j+11)%len(floats)], i*j-3, uint8(i*len(floats)+j))
		}
	}
	f.Fuzz(func(t *testing.T, name, other string, x, y, z float64, n int, shape uint8) {
		var services []eval.ServiceLoss
		switch shape % 3 {
		case 1:
			services = []eval.ServiceLoss{}
		case 2:
			services = []eval.ServiceLoss{{Name: name, Loss: x}, {Name: other, Loss: z}, {Name: name, Loss: y}}
		}
		res := eval.Result{Source: name, Mode: other, Hosts: n, CapabilityUnits: x, Loss: y, Services: services, Utilization: z, Watts: y, CacheHit: shape&64 != 0}
		var classes []plan.ClassCount
		var pools []plan.PoolSize
		if shape&4 != 0 {
			classes = []plan.ClassCount{{Name: name, Count: n}, {Name: other, Count: -n}}
		} else if shape&8 != 0 {
			classes = []plan.ClassCount{}
		}
		if shape&16 != 0 {
			pools = []plan.PoolSize{{Name: other, Servers: n}}
		}
		p := plan.Plan{Objective: name, Target: x, Mode: other, Hosts: n, Classes: classes, Dedicated: pools, Result: res, Evaluations: n / 3}
		same(t, "Plan", p.AppendJSON, p.EncodeJSON, p)

		var bins []plan.BinPlan
		if shape&32 != 0 {
			bins = []plan.BinPlan{}
		} else if shape&128 == 0 {
			bins = []plan.BinPlan{
				{Name: name, Seconds: x, Segment: n, Hosts: n, Classes: classes, Result: res, EnergyWh: z},
				{Name: other, Seconds: 3600, Dedicated: pools, Result: eval.Result{Services: services, Watts: y}, EnergyWh: y},
				{Name: name, Seconds: 3600, Result: res, EnergyWh: x},
			}
		}
		var moves []plan.Migration
		if shape&2 != 0 {
			moves = []plan.Migration{{From: name, To: other, Moves: n, CostWh: y}}
		}
		pp := plan.PeriodPlan{Objective: other, Target: y, Mode: name, MigrationCostWh: z, Bins: bins, Migrations: moves, EnergyWh: x, MigrationWh: y, TotalWh: z, TotalKWh: x / 1000, Evaluations: n}
		same(t, "PeriodPlan", pp.AppendJSON, pp.EncodeJSON, pp)
	})
}

// same checks one value's two encoders against encoding/json.
func same(t *testing.T, what string, appendJSON func([]byte) ([]byte, error), encodeJSON func() ([]byte, error), v any) {
	t.Helper()
	want, wantErr := json.Marshal(v)
	prefix := []byte("prefix")
	got, err := appendJSON(prefix[:len(prefix):len(prefix)])
	switch {
	case (err == nil) != (wantErr == nil):
		t.Fatalf("%s.AppendJSON error %v, json.Marshal error %v", what, err, wantErr)
	case err != nil:
		if err.Error() != wantErr.Error() {
			t.Fatalf("%s.AppendJSON error %q, json.Marshal error %q", what, err, wantErr)
		}
	case string(got) != "prefix"+string(want):
		t.Fatalf("%s.AppendJSON\n%s\njson.Marshal\n%s", what, got, want)
	}
	indented, err := encodeJSON()
	wantIndented, wantErr := json.MarshalIndent(v, "", "  ")
	switch {
	case (err == nil) != (wantErr == nil):
		t.Fatalf("%s.EncodeJSON error %v, json.MarshalIndent error %v", what, err, wantErr)
	case err == nil && string(indented) != string(wantIndented)+"\n":
		t.Fatalf("%s.EncodeJSON\n%s\njson.MarshalIndent\n%s", what, indented, wantIndented)
	}
}
