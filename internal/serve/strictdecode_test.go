package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/jsonenc"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

// stdDecode decodes data into v as a json.Decoder with
// DisallowUnknownFields does, and, like jsonenc.Decode, rejects anything
// but whitespace after the value.
func stdDecode(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if len(bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n")) > 0 {
		return errors.New("data after the value")
	}
	return nil
}

// agree decodes data twice over into a T with jsonenc.Decode and into
// another with stdDecode (the second pass merges into the first's
// result). Both must accept with deeply equal values or both reject;
// jsonenc.Decode must fail with a syntax error exactly when json.Valid
// rejects data, and otherwise with encoding/json's message.
func agree[T any](t *testing.T, data []byte) {
	t.Helper()
	var got, want T
	for pass := 0; pass < 2; pass++ {
		err, wantErr := jsonenc.Decode(data, &got), stdDecode(data, &want)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%T from %q: jsonenc error %v, encoding/json error %v", got, data, err, wantErr)
		}
		var syntax *jsonenc.SyntaxError
		if valid := json.Valid(data); valid == errors.As(err, &syntax) {
			t.Fatalf("%T from %q: json.Valid %v, jsonenc error %v", got, data, valid, err)
		} else if valid && err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("%T from %q: jsonenc error %q, encoding/json error %q", got, data, err, wantErr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%T from %q (pass %d):\njsonenc       %+v\nencoding/json %+v", got, data, pass, got, want)
		}
	}
}

// FuzzStrictDecode holds jsonenc.Decode to encoding/json on every root
// type a strict boundary of the service decodes: the plan body, batch
// requests, sweep specs (the CLIs' -sweep files too) and scenarios (every
// scenario file). core's model JSON has its own target (FuzzModelDecode).
func FuzzStrictDecode(f *testing.F) {
	files, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil {
		f.Fatal(err)
	}
	more, err := filepath.Glob("testdata/*.json")
	if err != nil {
		f.Fatal(err)
	}
	for _, name := range append(files, more...) {
		data, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, s := range append(planDecodeSeeds,
		`{"queries": [{"kind": "loss", "n": 2, "rho": 1}], "queries": [{"KIND": "servers"}]}`,
		`{"queries": [{"kind": "loss", "n": 1.5}]}`,
		`{"queries": [{"kind": "loss", "rho": 1e400}]}`,
		`{"base": {"services": [{"name": "aé😀 \ud800 \udc00x"}]}, "axes": [{"path": "horizon", "values": [60, "x", null, {"a": [1e400]}]}]}`,
		`{"name": "s", "Base": {"seed": 1.5}, "AXES": []}`,
		`{"services": [{"arrivals": {"kind": "superpose", "parts": [{"kind": "poisson", "rate": 1}, {"kind": "renewal", "inter": {"kind": "scaled", "of": {"kind": "exponential"}}}]}}]}`,
		`{"services": [{"profile": {"demands": {"cpu": {"kind": "exponential", "rate": 1}, "cpu": {"k": 2}}}}], "services": [{}]}`,
		`{"periods": {"bins": [{"name": "a", "multipliers": [1, 2]}, {}], "bins": [{"multiplier": 2}]}, "seed": -1}`,
	) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		agree[planBody](t, data)
		agree[BatchRequest](t, data)
		agree[sweep.Spec](t, data)
		agree[scenario.Scenario](t, data)
	})
}

// Every root type the service decodes has a decode table: jsonenc refuses
// a type it would not decode as encoding/json does, whatever the input.
func TestStrictDecodeTables(t *testing.T) {
	for _, v := range []any{new(planBody), new(BatchRequest), new(sweep.Spec), new(scenario.Scenario)} {
		if err := jsonenc.Decode([]byte(`null`), v); err != nil {
			t.Error(err)
		}
	}
}
