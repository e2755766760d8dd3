package jsonenc

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// stdDecode is the oracle: a json.Decoder with DisallowUnknownFields,
// plus Decode's rule that only whitespace may follow the value.
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

// agree decodes data twice over into a T with Decode and into another
// with encoding/json (the second pass merges into the first's result).
// Both must accept with deeply equal values or both reject. Decode must
// report a *SyntaxError exactly when json.Valid rejects data, and
// otherwise encoding/json's message.
func agree[T any](t *testing.T, data []byte) {
	t.Helper()
	var got, want T
	for pass := 0; pass < 2; pass++ {
		err, wantErr := Decode(data, &got), stdDecode(data, &want)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%T from %q: Decode error %v, encoding/json error %v", got, data, err, wantErr)
		}
		var syntax *SyntaxError
		if valid := json.Valid(data); valid == errors.As(err, &syntax) {
			t.Fatalf("%T from %q: json.Valid %v, Decode error %v", got, data, valid, err)
		} else if valid && err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("%T from %q: Decode error %q, encoding/json error %q", got, data, err, wantErr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%T from %q (pass %d):\nDecode        %+v\nencoding/json %+v", got, data, pass, got, want)
		}
	}
}

type inner struct {
	S string  `json:"s"`
	F float64 `json:"f,omitempty"`
	P *inner  `json:"p"`
}

// shapes holds every shape Decode supports.
type shapes struct {
	Name   string             `json:"name"`
	Count  int                `json:"count"`
	Small  int8               `json:"small"`
	U      uint64             `json:"u"`
	F32    float32            `json:"f32"`
	F      float64            `json:"f"`
	B      bool               `json:"b"`
	P      *float64           `json:"p"`
	PP     **int              `json:"pp"`
	Inner  inner              `json:"inner"`
	List   []inner            `json:"list"`
	Nums   []float64          `json:"nums"`
	M      map[string]float64 `json:"m"`
	MS     map[string]inner   `json:"ms"`
	Any    any                `json:"any"`
	Anys   []any              `json:"anys"`
	Raw    json.RawMessage    `json:"raw"`
	NoTag  string
	Kind   string `json:"kind"`
	Skip   int    `json:"-"`
	hidden int
}

var decodeSeeds = []string{
	`{}`, ` {"name": "a", "count": 3} `, `null`, `[]`, `5`, `"x"`, `true`, ``, ` `,
	`{"name": "a", "bogus": {"deep": [1, {"x": null}]}, "count": 2}`,
	`{"NAME": "upper", "Count": 1, "notag": "n", "NoTag": "exact"}`,
	`{"Kind": "kelvin", "ſmall": 1}`, // K (Kelvin) folds to k; ſ (long s) to s
	`{"name": "a\"b\\c\/d\b\f\n\r\té😀"}`,
	`{"name": "lone \ud800 high, lone \udc00 low, \ud800A broken pair"}`,
	"{\"name\": \"bad \xff utf8 \xc3\x28 \xe2\x82\"}",
	"{\"n\xffme\": 1}",
	`{"f": 1e400}`, `{"f": -1e400}`, `{"f": 1e-400}`, `{"f32": 1e39}`, `{"count": 1.5}`, `{"count": 1e2}`,
	`{"count": -0}`, `{"u": -0}`, `{"u": -1}`, `{"small": 128}`, `{"count": 9223372036854775808}`,
	`{"any": 1e400}`, `{"anys": [1, "s", true, null, {"k": [2]}, []]}`,
	`{"list": [{"s": "a", "f": 1}, {"s": "b"}], "list": [{"f": 2}]}`,
	`{"list": [{"s": "a"}, {"s": "b"}, {"s": "c"}], "list": [{}], "list": [{}, {}, {}]}`,
	`{"m": {"a": 1, "b": 2}, "m": {"c": 3}, "ms": {"x": {"s": "a", "f": 1}}, "ms": {"x": {"s": "b"}}}`,
	`{"inner": {"s": "a", "p": {"s": "b"}}, "inner": {"f": 2, "p": {"f": 3}}}`,
	`{"p": 1, "p": null, "pp": 2, "pp": null, "nums": null, "nums": [], "m": null, "any": null}`,
	`{"raw": {"a": [1, 2]}, "raw": null}`, `{"raw": "x"}`, `{"raw": 1 }`,
	`{"name": 5}`, `{"count": "5"}`, `{"b": 1}`, `{"inner": []}`, `{"list": {}}`, `{"m": {"a": "x"}}`,
	`{"ms": {"a": {"f": "x"}}}`, `{"list": [{"p": {"f": true}}]}`, `{"nums": [1, "x", 3]}`,
	`{"name": "a"} trailing`, `{"name": "a"}{}`, `{"name": "a",}`, `{"name" "a"}`, `{"name": "a" "b"}`,
	`[1, ]`, `{"nums": [1 2]}`, `{"name": "a`, `{"name": "\x"}`, `{"name": "\u12x4"}`, "{\"name\": \"a\nb\"}",
	`{"count": 01}`, `{"count": -}`, `{"count": 1.}`, `{"count": 1e}`, `{"count": 1e+}`, `{"count": .5}`,
	`{"b": tru}`, `{"b": trux}`, `{"b": nul}`, `{"b": falsy}`, `{"count": 1}x`, `{'name': 1}`,
	`{"unknown": 1, "count": "x"}`, `{"count": "x", "unknown": 1}`, `{"count": "x", "b": tru}`,
}

// Decode and encoding/json agree on every seed, values and messages.
func TestDecodeMatchesEncodingJSON(t *testing.T) {
	for _, s := range decodeSeeds {
		agree[shapes](t, []byte(s))
		agree[any](t, []byte(s))
		agree[map[string]any](t, []byte(s))
	}
	deep := strings.Repeat(`{"any": `, 10001) + `1` + strings.Repeat(`}`, 10001)
	agree[shapes](t, []byte(deep))
	agree[shapes](t, []byte(deep[len(`{"any": `):len(deep)-1]))
}

// FuzzDecode holds Decode to encoding/json over every supported shape.
func FuzzDecode(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		agree[shapes](t, data)
		agree[any](t, data)
	})
}

// A type Decode would not decode as encoding/json does is refused before
// any input is read.
func TestDecodeRefusesUnsupportedTypes(t *testing.T) {
	type embedded struct{ inner }
	type stringOpt struct {
		N int `json:"n,string"`
	}
	type duplicate struct {
		A int
		B int `json:"A"`
	}
	for _, v := range []any{
		new(embedded), new(stringOpt), new(duplicate), new(time.Time), new(struct{ T *time.Time }),
		new([]byte), new([2]int), new(map[int]string), new(struct{ E error }), new(json.Number), new(chan int),
	} {
		err := Decode([]byte(`null`), v)
		if err == nil || !strings.HasPrefix(err.Error(), "jsonenc: cannot decode into ") {
			t.Errorf("%T: error %v", v, err)
		}
	}
	if err := Decode([]byte(`{}`), shapes{}); !errors.As(err, new(*json.InvalidUnmarshalError)) {
		t.Errorf("non-pointer: error %v", err)
	}
}

// A key without escapes allocates nothing: decoding an object of known
// numeric fields allocates nothing at all.
func TestDecodeKeysAllocateNothing(t *testing.T) {
	data := []byte(`{"count": 3, "f": 1.5, "b": true, "inner": {"f": 2}, "nums": null}`)
	var v shapes
	if err := Decode(data, &v); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { _ = Decode(data, &v) }); n != 0 {
		t.Fatalf("%v allocations per decode", n)
	}
}

// Goroutines decoding into a type at once share its table, whichever of
// them builds it.
func TestDecodeConcurrentFirstUse(t *testing.T) {
	type fresh struct {
		List []inner          `json:"list"`
		M    map[string]inner `json:"m"`
	}
	data := []byte(`{"list": [{"s": "a", "p": {"f": 1}}], "m": {"k": {"s": "b"}}}`)
	var want fresh
	if err := stdDecode(data, &want); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var got fresh
			if err := Decode(data, &got); err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("decoded %+v, error %v", got, err)
			}
		}()
	}
	wg.Wait()
}
