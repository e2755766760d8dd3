package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"repro/internal/jsonenc"
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

// FuzzModelDecode holds the model file's decode (ParseJSONBytes) to
// encoding/json: decoding twice over into one modelJSON (the second pass
// merges into the first's result), both accept with deeply equal models
// or both reject, jsonenc fails with a syntax error exactly when
// json.Valid rejects the input, and otherwise with encoding/json's
// message.
func FuzzModelDecode(f *testing.F) {
	for _, s := range []string{
		jsonSpec, jsonSpec + " x", `{}`, `null`, `[]`,
		`{"lossTarget": 0.05, "LOSSTARGET": 0.1, "services": [{"name": "a", "servingRates": {"cpu": 1}}], "services": [{}]}`,
		`{"services": [{"name": "wéb \ud800", "servingRates": {"cpu": 1e400}}]}`,
		`{"power": {"base": 1, "max": 2}, "power": {"max": 3}, "resources": ["cpu", 1.5]}`,
		`{"lossTarget": "0.05"}`, `{"services": [{"impactFactors": {"cpu": true}}]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got, want modelJSON
		for pass := 0; pass < 2; pass++ {
			err, wantErr := jsonenc.Decode(data, &got), stdDecode(data, &want)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("%q: jsonenc error %v, encoding/json error %v", data, err, wantErr)
			}
			var syntax *jsonenc.SyntaxError
			if valid := json.Valid(data); valid == errors.As(err, &syntax) {
				t.Fatalf("%q: json.Valid %v, jsonenc error %v", data, valid, err)
			} else if valid && err != nil && err.Error() != wantErr.Error() {
				t.Fatalf("%q: jsonenc error %q, encoding/json error %q", data, err, wantErr)
			}
			if err != nil {
				return
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%q (pass %d):\njsonenc       %+v\nencoding/json %+v", data, pass, got, want)
			}
		}
	})
}

// The model file's type has a decode table: jsonenc refuses a type it
// would not decode as encoding/json does, whatever the input.
func TestModelDecodeTable(t *testing.T) {
	if err := jsonenc.Decode([]byte(`null`), new(modelJSON)); err != nil {
		t.Fatal(err)
	}
}
