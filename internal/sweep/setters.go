package sweep

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"

	"repro/internal/jsonenc"
	"repro/internal/scenario"
)

// The compiled-setter expansion: each axis path is resolved against the
// scenario schema exactly once per spec, into a step program that stamps
// values directly into a typed Scenario clone. Expansion then costs one
// deep clone plus a handful of field writes per point instead of a full
// JSON marshal/unmarshal round-trip.
//
// Path semantics are identical to the old JSON-document walker:
//
//   - name segments address struct fields by their json tag (an unknown
//     name is a typo and fails compilation) or map keys;
//   - integer segments index slices, bounds-checked at apply time against
//     the point's actual slice;
//   - nil pointers on the way down are allocated, like stamping into a
//     JSON object that was absent.
//
// Scalar axis values (numbers, strings, bools landing in non-pointer
// scalar fields) are converted once at compile time by the strict decoder
// (jsonenc.Decode), so out-of-domain values (2.5 into an int field) fail
// with the same errors strict re-parsing produced. Composite values — and
// any value landing in a pointer field — keep their marshaled form and
// are strictly re-decoded per point, so unknown fields inside them are
// still rejected and no decoded state is ever shared between points.

type stepKind uint8

const (
	stepField stepKind = iota // struct field by index
	stepDeref                 // pointer: allocate when nil, then descend
	stepSlice                 // slice element, bounds-checked at apply time
	stepMap                   // map entry: copy out, descend, write back
)

type pathStep struct {
	kind  stepKind
	field int    // stepField
	index int    // stepSlice
	key   string // stepMap
}

// axisValue is one pre-converted axis value.
type axisValue struct {
	// scalar, when valid, is the value already converted to the target
	// type; it is copied into each point by Value.Set.
	scalar reflect.Value

	// raw is the marshaled form for composite or pointer targets,
	// strictly re-decoded into a fresh value at every apply.
	raw []byte
}

// compiledAxis is one axis resolved against the scenario schema.
type compiledAxis struct {
	path   string
	steps  []pathStep
	values []axisValue
	labels []string // "path=value" fragment per value
}

var scenarioType = reflect.TypeOf(scenario.Scenario{})

// compileAxis resolves the axis path against scenario.Scenario and
// pre-converts its values.
func compileAxis(ax Axis) (compiledAxis, error) {
	ca := compiledAxis{path: ax.Path}
	ca.steps = make([]pathStep, 0, strings.Count(ax.Path, ".")+2)
	t := scenarioType
	rest := ax.Path
	for rest != "" {
		seg := rest
		if dot := strings.IndexByte(rest, '.'); dot >= 0 {
			seg, rest = rest[:dot], rest[dot+1:]
		} else {
			rest = ""
		}
		// Descend through pointers before resolving the segment, like
		// json addressing through an object held by pointer.
		for t.Kind() == reflect.Pointer {
			ca.steps = append(ca.steps, pathStep{kind: stepDeref})
			t = t.Elem()
		}
		if numericSegment(seg) {
			if idx, err := strconv.Atoi(seg); err == nil {
				if t.Kind() != reflect.Slice {
					return ca, fmt.Errorf("segment %q indexes a non-array", seg)
				}
				if idx < 0 {
					return ca, fmt.Errorf("index %d out of range", idx)
				}
				ca.steps = append(ca.steps, pathStep{kind: stepSlice, index: idx})
				t = t.Elem()
				continue
			}
		}
		switch t.Kind() {
		case reflect.Struct:
			f, ok := fieldByJSONName(t, seg)
			if !ok {
				return ca, fmt.Errorf("unknown field %q in %s", seg, t.Name())
			}
			ca.steps = append(ca.steps, pathStep{kind: stepField, field: f})
			t = t.Field(f).Type
		case reflect.Map:
			if t.Key().Kind() != reflect.String {
				return ca, fmt.Errorf("segment %q addresses a non-string-keyed map", seg)
			}
			ca.steps = append(ca.steps, pathStep{kind: stepMap, key: seg})
			t = t.Elem()
		default:
			return ca, fmt.Errorf("segment %q addresses into a non-object", seg)
		}
	}

	ca.values = make([]axisValue, len(ax.Values))
	ca.labels = make([]string, len(ax.Values))
	for i, v := range ax.Values {
		raw, err := json.Marshal(v)
		if err != nil {
			return ca, fmt.Errorf("encoding value %v: %v", v, err)
		}
		av, err := convertAxisValue(v, raw, t)
		if err != nil {
			return ca, err
		}
		ca.values[i] = av
		ca.labels[i] = ax.Path + "=" + string(raw)
	}
	return ca, nil
}

// numericSegment reports whether the segment looks like an array index,
// gating the strconv call so plain field names never pay for a parse
// error allocation.
func numericSegment(seg string) bool {
	if seg == "" {
		return false
	}
	c := seg[0]
	return c == '-' || ('0' <= c && c <= '9')
}

// convertAxisValue prepares one axis value (and its marshaled form) for
// the target type through the strict decoder, so conversion errors match
// what a strict re-parse of the stamped document reported. Exact scalar
// matches skip the decoder entirely.
func convertAxisValue(v any, raw []byte, t reflect.Type) (axisValue, error) {
	if sv, ok := fastScalar(v, t); ok {
		return axisValue{scalar: sv}, nil
	}
	pv := reflect.New(t)
	if err := jsonenc.Decode(raw, pv.Interface()); err != nil {
		return axisValue{}, err
	}
	switch t.Kind() {
	case reflect.Bool, reflect.String,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64:
		return axisValue{scalar: pv.Elem()}, nil
	default:
		// Composite or pointer target: decoded now only to fail fast on
		// malformed values; every apply decodes the raw form afresh so
		// points never share mutable state.
		return axisValue{raw: raw}, nil
	}
}

// fastScalar converts the common in-domain scalar shapes directly (a
// JSON number is a float64; integral targets require integral values,
// exactly as the decoder does) and declines everything else — out-of-range
// or fractional values fall through to the decoder so the error text
// stays its own.
func fastScalar(v any, t reflect.Type) (reflect.Value, bool) {
	const safeInt = 1 << 62
	switch t.Kind() {
	case reflect.Float32, reflect.Float64:
		if f, ok := v.(float64); ok {
			return reflect.ValueOf(f).Convert(t), true
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		f, ok := floatValue(v)
		if ok && f == math.Trunc(f) && f > -safeInt && f < safeInt {
			rv := reflect.New(t).Elem()
			if !rv.OverflowInt(int64(f)) {
				rv.SetInt(int64(f))
				return rv, true
			}
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		f, ok := floatValue(v)
		if ok && f >= 0 && f == math.Trunc(f) && f < safeInt {
			rv := reflect.New(t).Elem()
			if !rv.OverflowUint(uint64(f)) {
				rv.SetUint(uint64(f))
				return rv, true
			}
		}
	case reflect.String:
		if s, ok := v.(string); ok {
			return reflect.ValueOf(s).Convert(t), true
		}
	case reflect.Bool:
		if b, ok := v.(bool); ok {
			return reflect.ValueOf(b).Convert(t), true
		}
	}
	return reflect.Value{}, false
}

func floatValue(v any) (float64, bool) {
	switch n := v.(type) {
	case float64:
		return n, true
	case int:
		if int(float64(n)) == n { // exact in a float64
			return float64(n), true
		}
	}
	return 0, false
}

// apply stamps value vi into the scenario.
func (ca *compiledAxis) apply(s *scenario.Scenario, vi int) error {
	return applySteps(reflect.ValueOf(s).Elem(), ca.steps, &ca.values[vi])
}

func applySteps(cur reflect.Value, steps []pathStep, val *axisValue) error {
	if len(steps) == 0 {
		return setTerminal(cur, val)
	}
	st := steps[0]
	switch st.kind {
	case stepField:
		return applySteps(cur.Field(st.field), steps[1:], val)
	case stepDeref:
		if cur.IsNil() {
			cur.Set(reflect.New(cur.Type().Elem()))
		}
		return applySteps(cur.Elem(), steps[1:], val)
	case stepSlice:
		if st.index >= cur.Len() {
			return fmt.Errorf("index %d out of range (array has %d elements)", st.index, cur.Len())
		}
		return applySteps(cur.Index(st.index), steps[1:], val)
	default: // stepMap: map values are not addressable — copy, descend, write back.
		if cur.IsNil() {
			cur.Set(reflect.MakeMap(cur.Type()))
		}
		key := reflect.ValueOf(st.key)
		tmp := reflect.New(cur.Type().Elem()).Elem()
		if mv := cur.MapIndex(key); mv.IsValid() {
			tmp.Set(mv)
		}
		if err := applySteps(tmp, steps[1:], val); err != nil {
			return err
		}
		cur.SetMapIndex(key, tmp)
		return nil
	}
}

func setTerminal(dst reflect.Value, val *axisValue) error {
	if val.scalar.IsValid() {
		dst.Set(val.scalar)
		return nil
	}
	pv := reflect.New(dst.Type())
	if err := jsonenc.Decode(val.raw, pv.Interface()); err != nil {
		return err
	}
	dst.Set(pv.Elem())
	return nil
}

func fieldByJSONName(t reflect.Type, name string) (int, bool) {
	for i := 0; i < t.NumField(); i++ {
		tag := t.Field(i).Tag.Get("json")
		if comma := strings.IndexByte(tag, ','); comma >= 0 {
			tag = tag[:comma]
		}
		if tag == name {
			return i, true
		}
	}
	return 0, false
}
