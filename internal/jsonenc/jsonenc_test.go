package jsonenc

import (
	"encoding/json"
	"math"
	"testing"
)

// The appenders print what json.Marshal prints: numbers on both sides of
// the 1e-6 and 1e21 form boundaries, signed zeros and subnormals, and
// strings that need every kind of escape. NaN and ±Inf fail with
// json.Marshal's error and leave the buffer as it was.
func TestAppendersMatchEncodingJSON(t *testing.T) {
	for _, f := range []float64{0, math.Copysign(0, -1), 1, -1.5, 1e-6, math.Nextafter(1e-6, 0), 1e-7, 1.5e-10, 1e20, 1e21, math.Nextafter(1e21, 0), 1e+300, 5e-324, 1e6, 0.00001, 123456.789, math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1)} {
		want, wantErr := json.Marshal(f)
		got, err := AppendFloat([]byte("x"), f)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("AppendFloat(%g) error %v, json.Marshal error %v", f, err, wantErr)
		}
		if err != nil {
			want = nil
		}
		if string(got) != "x"+string(want) {
			t.Errorf("AppendFloat(%g) = %s, json.Marshal prints %s", f, got[1:], want)
		}
	}
	for _, s := range []string{"", "plain", "<script>&amp;</script>", "q\"b\\s/", "\x00\x07\b\t\n\v\f\r\x1b\x1f\x7f", "line\u2028para\u2029", "\xff\xfe\xc3", "caf\xc3\xa9 \xe2\x98\x83 \xf0\x9f\x98\x80"} {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString([]byte("x"), s); string(got) != "x"+string(want) {
			t.Errorf("AppendString(%q) = %s, json.Marshal prints %s", s, got[1:], want)
		}
	}
}
