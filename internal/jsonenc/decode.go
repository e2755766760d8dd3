package jsonenc

import (
	"bytes"
	"encoding"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode/utf16"
	"unicode/utf8"
)

// Decode decodes the one JSON value in data into v, a non-nil pointer,
// and accepts nothing after that value but whitespace. Apart from that
// trailing-data rule it speaks the language of a json.Decoder with
// DisallowUnknownFields, in a single pass over data:
//   - an object key selects the field whose name (json tag, else Go name)
//     equals it, or else the first field in declaration order whose name
//     bytes.EqualFold's it; any other key is the error
//     `json: unknown field "key"`;
//   - a repeated key decodes into the value already there: pointers and
//     structs merge, a slice reuses its elements and is cut to the new
//     length, a map keeps its entries and gets fresh elements;
//   - null zeroes pointers, slices, maps and interfaces and leaves other
//     kinds as they were; [] gives an empty non-nil slice;
//   - a number that overflows its float, or an integer field given a
//     fraction or an exponent, is a *json.UnmarshalTypeError, as is every
//     other value of the wrong JSON kind; its Struct and Field name where
//     it sits;
//   - an empty interface gets float64, string, bool, nil, []any or
//     map[string]any; a json.RawMessage gets a copy of the value's bytes;
//   - strings decode the JSON escapes and surrogate pairs, and a lone
//     surrogate or a byte of invalid UTF-8 becomes U+FFFD.
//
// Malformed input is a *SyntaxError with encoding/json's message. As in
// encoding/json, a type error or unknown field does not stop the pass: a
// later syntax error is reported instead, else the first of them is.
// Decoded strings and byte slices never alias data.
//
// The field tables are built by reflection once per Go type. A type the
// decoder cannot decode exactly as encoding/json would is refused when
// its table is built, whatever the input: embedded fields, the ",string"
// option, json.Unmarshaler and encoding.TextUnmarshaler implementations,
// []byte, arrays, non-string map keys and non-empty interfaces.
func Decode(data []byte, v any) error {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return &json.InvalidUnmarshalError{Type: reflect.TypeOf(v)}
	}
	c, err := codecFor(rv.Type().Elem())
	if err != nil {
		return err
	}
	d := decoder{data: data}
	if err := d.value(c, rv.Elem()); err != nil {
		return err
	}
	if d.skipSpace(); d.pos < len(d.data) {
		return d.syntaxError("after top-level value")
	}
	return d.saved
}

// SyntaxError reports input that is not exactly one JSON value. Offset is
// the byte at fault (the input's length for a truncated value).
type SyntaxError struct {
	msg    string
	Offset int64
}

func (e *SyntaxError) Error() string { return e.msg }

// maxDepth is encoding/json's limit on nested objects and arrays.
const maxDepth = 10000

// codec is the decode table of one Go type.
type codec struct {
	typ    reflect.Type
	kind   reflect.Kind
	raw    bool    // json.RawMessage
	elem   *codec  // pointer, slice and map elements
	fields []field // struct fields, in declaration order
}

type field struct {
	name  string
	fold  []byte // name, for bytes.EqualFold
	index int
	codec *codec
}

var (
	codecs          sync.Map // reflect.Type → *codec
	rawType         = reflect.TypeFor[json.RawMessage]()
	float64Type     = reflect.TypeFor[float64]()
	unmarshaler     = reflect.TypeFor[json.Unmarshaler]()
	textUnmarshaler = reflect.TypeFor[encoding.TextUnmarshaler]()
)

// codecFor returns t's table, building it on first use. Tables link to
// their fields' tables directly, so a decode looks up only its root.
func codecFor(t reflect.Type) (*codec, error) {
	if c, ok := codecs.Load(t); ok {
		return c.(*codec), nil
	}
	c, err := build(t, map[reflect.Type]*codec{})
	if err != nil {
		return nil, fmt.Errorf("jsonenc: cannot decode into %v: %w", t, err)
	}
	actual, _ := codecs.LoadOrStore(t, c)
	return actual.(*codec), nil
}

// build makes t's table; built holds the tables under construction, so a
// recursive type links back to its own.
func build(t reflect.Type, built map[reflect.Type]*codec) (*codec, error) {
	if c := built[t]; c != nil {
		return c, nil
	}
	c := &codec{typ: t, kind: t.Kind(), raw: t == rawType}
	built[t] = c
	if c.raw {
		return c, nil
	}
	if pt := reflect.PointerTo(t); t.Kind() != reflect.Pointer && (pt.Implements(unmarshaler) || pt.Implements(textUnmarshaler)) {
		return nil, fmt.Errorf("%v has its own unmarshaler", t)
	}
	var err error
	switch t.Kind() {
	case reflect.Bool, reflect.String, reflect.Float32, reflect.Float64,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if t == reflect.TypeFor[json.Number]() {
			return nil, fmt.Errorf("%v is unsupported", t)
		}
	case reflect.Interface:
		if t.NumMethod() != 0 {
			return nil, fmt.Errorf("non-empty interface %v", t)
		}
	case reflect.Pointer, reflect.Slice:
		if t.Kind() == reflect.Slice && t.Elem().Kind() == reflect.Uint8 {
			return nil, fmt.Errorf("byte slice %v", t)
		}
		c.elem, err = build(t.Elem(), built)
	case reflect.Map:
		if k := t.Key(); k.Kind() != reflect.String || reflect.PointerTo(k).Implements(textUnmarshaler) {
			return nil, fmt.Errorf("map key %v", k)
		}
		c.elem, err = build(t.Elem(), built)
	case reflect.Struct:
		err = c.buildFields(built)
	default:
		return nil, fmt.Errorf("%v is unsupported", t)
	}
	if err != nil {
		return nil, err
	}
	return c, nil
}

func (c *codec) buildFields(built map[reflect.Type]*codec) error {
	for i := 0; i < c.typ.NumField(); i++ {
		sf := c.typ.Field(i)
		tag := sf.Tag.Get("json")
		switch {
		case sf.Anonymous:
			return fmt.Errorf("%v has embedded field %s", c.typ, sf.Name)
		case tag == "-" || !sf.IsExported():
			continue
		}
		name, opts, _ := strings.Cut(tag, ",")
		if slices.Contains(strings.Split(opts, ","), "string") {
			return fmt.Errorf("%v.%s has the \",string\" option", c.typ, sf.Name)
		}
		if name == "" {
			name = sf.Name
		}
		if strings.TrimLeft(name, "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_-") != "" {
			return fmt.Errorf("%v.%s has field name %q", c.typ, sf.Name, name)
		}
		for _, f := range c.fields {
			if f.name == name {
				return fmt.Errorf("%v has two fields named %q", c.typ, name)
			}
		}
		fc, err := build(sf.Type, built)
		if err != nil {
			return err
		}
		c.fields = append(c.fields, field{name: name, fold: []byte(name), index: i, codec: fc})
	}
	return nil
}

// field finds the field key selects: an exact name, else the first name
// equal under Unicode case folding.
func (c *codec) field(key []byte) *field {
	for i := range c.fields {
		if f := &c.fields[i]; len(key) == len(f.name) && key[0] == f.name[0] && string(key) == f.name {
			return f
		}
	}
	for i := range c.fields {
		if bytes.EqualFold(key, c.fields[i].fold) {
			return &c.fields[i]
		}
	}
	return nil
}

// decoder is one pass over data. Every value reader starts at the value's
// first byte and stops just past its last.
type decoder struct {
	data  []byte
	pos   int
	depth int
	buf   []byte // unquoted strings that had escapes
	saved error  // the first type error or unknown field
}

var space = [256]bool{' ': true, '\t': true, '\n': true, '\r': true}

// plain marks the string bytes that need no unquoting: ASCII but control
// characters, quote and backslash.
var plain = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

func (d *decoder) skipSpace() {
	data, i := d.data, d.pos
	for i < len(data) && space[data[i]] {
		i++
	}
	d.pos = i
}

// peek skips whitespace and returns the next byte.
func (d *decoder) peek() (byte, error) {
	d.skipSpace()
	if d.pos >= len(d.data) {
		return 0, d.eof()
	}
	return d.data[d.pos], nil
}

func (d *decoder) eof() error {
	return &SyntaxError{msg: "unexpected end of JSON input", Offset: int64(len(d.data))}
}

// syntaxError reports the byte at d.pos, in encoding/json's words.
func (d *decoder) syntaxError(context string) error {
	q := `'"'`
	switch c := d.data[d.pos]; c {
	case '\'':
		q = `'\''`
	case '"':
	default:
		s := strconv.Quote(string(c))
		q = "'" + s[1:len(s)-1] + "'"
	}
	return &SyntaxError{msg: "invalid character " + q + " " + context, Offset: int64(d.pos)}
}

// typeError keeps the first type error. The objects around it name its
// struct and field path as they return (object).
func (d *decoder) typeError(value string, t reflect.Type) {
	if d.saved == nil {
		d.saved = &json.UnmarshalTypeError{Value: value, Type: t, Offset: int64(d.pos)}
	}
}

// value decodes the next value into v, which has c's type.
func (d *decoder) value(c *codec, v reflect.Value) error {
	b, err := d.peek()
	if err != nil {
		return err
	}
	if c.raw {
		start := d.pos
		if _, err := d.anyValue(false); err != nil {
			return err
		}
		v.SetBytes(append(v.Bytes()[:0], d.data[start:d.pos]...))
		return nil
	}
	if b == 'n' {
		switch c.kind {
		case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Interface:
			v.SetZero()
		}
		return d.literal("null")
	}
	switch c.kind {
	case reflect.Pointer:
		if v.IsNil() {
			v.Set(reflect.New(c.typ.Elem()))
		}
		return d.value(c.elem, v.Elem())
	case reflect.Interface:
		x, err := d.anyValue(true)
		if x != nil {
			v.Set(reflect.ValueOf(x))
		}
		return err
	case reflect.Struct:
		if b == '{' {
			return d.object(c, v)
		}
	case reflect.Map:
		if b == '{' {
			return d.mapObject(c, v)
		}
	case reflect.Slice:
		if b == '[' {
			return d.array(c, v)
		}
	case reflect.String:
		if b == '"' {
			s, err := d.str()
			if err == nil {
				v.SetString(string(s))
			}
			return err
		}
	case reflect.Bool:
		if b == 't' || b == 'f' {
			v.SetBool(b == 't')
			if b == 't' {
				return d.literal("true")
			}
			return d.literal("false")
		}
	default:
		if b == '-' || '0' <= b && b <= '9' {
			lit, err := d.number()
			if err == nil {
				d.setNumber(c, v, lit)
			}
			return err
		}
	}
	if _, err := d.anyValue(false); err != nil {
		return err
	}
	what := "number"
	switch b {
	case '{':
		what = "object"
	case '[':
		what = "array"
	case '"':
		what = "string"
	case 't', 'f':
		what = "bool"
	}
	d.typeError(what, c.typ)
	return nil
}

func (d *decoder) setNumber(c *codec, v reflect.Value, lit []byte) {
	switch c.kind {
	case reflect.Float32, reflect.Float64:
		if f, err := strconv.ParseFloat(string(lit), c.typ.Bits()); err == nil && !v.OverflowFloat(f) {
			v.SetFloat(f)
			return
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if n, err := strconv.ParseInt(string(lit), 10, 64); err == nil && !v.OverflowInt(n) {
			v.SetInt(n)
			return
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if n, err := strconv.ParseUint(string(lit), 10, 64); err == nil && !v.OverflowUint(n) {
			v.SetUint(n)
			return
		}
	default:
		d.typeError("number", c.typ)
		return
	}
	d.typeError("number "+string(lit), c.typ)
}

// object decodes an object into the struct v.
func (d *decoder) object(c *codec, v reflect.Value) error {
	more, err := d.open('}')
	for ; more && err == nil; more, err = d.next('}', "after object key:value pair") {
		key, err := d.key()
		if err != nil {
			return err
		}
		f := c.field(key)
		if f == nil {
			if d.saved == nil {
				d.saved = fmt.Errorf("json: unknown field %q", string(key))
			}
			if _, err := d.anyValue(false); err != nil {
				return err
			}
			continue
		}
		saved := d.saved
		if err := d.value(f.codec, v.Field(f.index)); err != nil {
			return err
		}
		// A type error inside the field gets, as encoding/json gives it,
		// the innermost struct's name and the JSON field path to it.
		if e, ok := d.saved.(*json.UnmarshalTypeError); ok && saved == nil {
			if e.Field == "" {
				e.Struct, e.Field = c.typ.Name(), f.name
			} else {
				e.Field = f.name + "." + e.Field
			}
		}
	}
	return err
}

// mapObject decodes an object into the map v, adding to what it holds.
func (d *decoder) mapObject(c *codec, v reflect.Value) error {
	if v.IsNil() {
		v.Set(reflect.MakeMap(c.typ))
	}
	k := reflect.New(c.typ.Key()).Elem()
	elem := reflect.New(c.elem.typ).Elem()
	more, err := d.open('}')
	for ; more && err == nil; more, err = d.next('}', "after object key:value pair") {
		key, err := d.key()
		if err != nil {
			return err
		}
		k.SetString(string(key))
		elem.SetZero()
		if err := d.value(c.elem, elem); err != nil {
			return err
		}
		v.SetMapIndex(k, elem)
	}
	return err
}

// array decodes an array into the slice v, as encoding/json does: the
// slice's elements are decoded into in place, grown one at a time, and
// the slice is cut to the array's length.
func (d *decoder) array(c *codec, v reflect.Value) error {
	i := 0
	more, err := d.open(']')
	for ; more && err == nil; more, err = d.next(']', "after array element") {
		if i >= v.Cap() {
			v.Grow(1)
		}
		if i >= v.Len() {
			v.SetLen(i + 1)
		}
		if err := d.value(c.elem, v.Index(i)); err != nil {
			return err
		}
		i++
	}
	if err != nil {
		return err
	}
	if i < v.Len() {
		v.SetLen(i)
	}
	if i == 0 {
		v.Set(reflect.MakeSlice(c.typ, 0, 0))
	}
	return nil
}

// anyValue decodes the next value as an empty interface holds it, or
// when !keep only checks and skips it.
func (d *decoder) anyValue(keep bool) (any, error) {
	b, err := d.peek()
	if err != nil {
		return nil, err
	}
	switch b {
	case '{':
		var m map[string]any
		if keep {
			m = make(map[string]any)
		}
		more, err := d.open('}')
		for ; more && err == nil; more, err = d.next('}', "after object key:value pair") {
			key, err := d.key()
			if err != nil {
				return nil, err
			}
			var k string
			if keep {
				k = string(key)
			}
			x, err := d.anyValue(keep)
			if err != nil {
				return nil, err
			}
			if keep {
				m[k] = x
			}
		}
		if !keep {
			return nil, err
		}
		return m, err
	case '[':
		var a []any
		if keep {
			a = []any{}
		}
		more, err := d.open(']')
		for ; more && err == nil; more, err = d.next(']', "after array element") {
			x, err := d.anyValue(keep)
			if err != nil {
				return nil, err
			}
			if keep {
				a = append(a, x)
			}
		}
		if !keep {
			return nil, err
		}
		return a, err
	case '"':
		s, err := d.str()
		if err != nil || !keep {
			return nil, err
		}
		return string(s), nil
	case 't':
		return true, d.literal("true")
	case 'f':
		return false, d.literal("false")
	case 'n':
		return nil, d.literal("null")
	}
	lit, err := d.number()
	if err != nil || !keep {
		return nil, err
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		d.typeError("number "+string(lit), float64Type)
		return nil, nil
	}
	return f, nil
}

// open consumes the '{' or '[' at d.pos. It reports whether a member
// follows, and consumes the closing byte when none does.
func (d *decoder) open(closing byte) (bool, error) {
	if d.depth++; d.depth > maxDepth {
		return false, d.syntaxError("exceeded max depth")
	}
	d.pos++
	b, err := d.peek()
	if err != nil || b != closing {
		return err == nil, err
	}
	d.pos++
	d.depth--
	return false, nil
}

// next consumes the ',' or closing byte after a member and reports
// whether another member follows.
func (d *decoder) next(closing byte, context string) (bool, error) {
	b, err := d.peek()
	switch {
	case err != nil:
		return false, err
	case b == ',':
		d.pos++
		return true, nil
	case b == closing:
		d.pos++
		d.depth--
		return false, nil
	}
	return false, d.syntaxError(context)
}

// key reads an object key and its ':'. The key is valid until the next
// string is read.
func (d *decoder) key() ([]byte, error) {
	b, err := d.peek()
	if err != nil {
		return nil, err
	}
	if b != '"' {
		return nil, d.syntaxError("looking for beginning of object key string")
	}
	k, err := d.str()
	if err != nil {
		return nil, err
	}
	if b, err = d.peek(); err != nil {
		return nil, err
	}
	if b != ':' {
		return nil, d.syntaxError("after object key")
	}
	d.pos++
	return k, nil
}

// str reads the string at d.pos and returns it unquoted: a slice of data
// when it is plain ASCII, else of d.buf.
func (d *decoder) str() ([]byte, error) {
	data, start := d.data, d.pos+1
	i := start
	for i < len(data) && plain[data[i]] {
		i++
	}
	if i < len(data) && data[i] == '"' {
		d.pos = i + 1
		return data[start:i], nil
	}
	b := d.buf[:0]
	for i = start; i < len(d.data); {
		c := d.data[i]
		switch {
		case c == '"':
			d.pos, d.buf = i+1, b
			return b, nil
		case c == '\\':
			if i++; i >= len(d.data) {
				return nil, d.eof()
			}
			switch c = d.data[i]; c {
			case '"', '\\', '/':
				b = append(b, c)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := hexRune(d.data[i+1:])
				if r < 0 {
					for i++; i < len(d.data) && unhex(d.data[i]) >= 0; i++ {
					}
					if i >= len(d.data) {
						return nil, d.eof()
					}
					d.pos = i
					return nil, d.syntaxError("in \\u hexadecimal character escape")
				}
				i += 4
				if utf16.IsSurrogate(r) {
					// A pair is two escapes; the second is consumed only
					// when it completes the pair.
					r2 := rune(-1)
					if i+2 < len(d.data) && d.data[i+1] == '\\' && d.data[i+2] == 'u' {
						r2 = hexRune(d.data[i+3:])
					}
					if r = utf16.DecodeRune(r, r2); r != utf8.RuneError {
						i += 6
					}
				}
				b = utf8.AppendRune(b, r)
			default:
				d.pos = i
				return nil, d.syntaxError("in string escape code")
			}
			i++
		case c < 0x20:
			d.pos = i
			return nil, d.syntaxError("in string literal")
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, size := utf8.DecodeRune(d.data[i:])
			b = utf8.AppendRune(b, r)
			i += size
		}
	}
	return nil, d.eof()
}

// hexRune decodes the four hex digits b starts with, or returns -1.
func hexRune(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		h := unhex(c)
		if h < 0 {
			return -1
		}
		r = r<<4 | h
	}
	return r
}

// unhex returns the value of the hex digit c, or -1.
func unhex(c byte) rune {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0')
	case 'a' <= c && c <= 'f':
		return rune(c - 'a' + 10)
	case 'A' <= c && c <= 'F':
		return rune(c - 'A' + 10)
	}
	return -1
}

// literal consumes true, false or null, whose first byte is at d.pos.
func (d *decoder) literal(word string) error {
	for i := 1; i < len(word); i++ {
		switch p := d.pos + i; {
		case p >= len(d.data):
			return d.eof()
		case d.data[p] != word[i]:
			d.pos = p
			return d.syntaxError("in literal " + word + " (expecting '" + word[i:i+1] + "')")
		}
	}
	d.pos += len(word)
	return nil
}

// number consumes a number and returns its literal.
func (d *decoder) number() ([]byte, error) {
	start := d.pos
	switch c := d.data[d.pos]; {
	case c == '-':
		if d.pos++; d.pos < len(d.data) && d.data[d.pos] == '0' {
			d.pos++
		} else if err := d.digits("in numeric literal"); err != nil {
			return nil, err
		}
	case c == '0':
		d.pos++
	case '1' <= c && c <= '9':
		_ = d.digits("")
	default:
		return nil, d.syntaxError("looking for beginning of value")
	}
	if d.pos < len(d.data) && d.data[d.pos] == '.' {
		d.pos++
		if err := d.digits("after decimal point in numeric literal"); err != nil {
			return nil, err
		}
	}
	if d.pos < len(d.data) && (d.data[d.pos] == 'e' || d.data[d.pos] == 'E') {
		if d.pos++; d.pos < len(d.data) && (d.data[d.pos] == '+' || d.data[d.pos] == '-') {
			d.pos++
		}
		if err := d.digits("in exponent of numeric literal"); err != nil {
			return nil, err
		}
	}
	return d.data[start:d.pos], nil
}

// digits consumes one or more decimal digits.
func (d *decoder) digits(context string) error {
	if d.pos >= len(d.data) {
		return d.eof()
	}
	if c := d.data[d.pos]; c < '0' || c > '9' {
		return d.syntaxError(context)
	}
	for d.pos < len(d.data) && '0' <= d.data[d.pos] && d.data[d.pos] <= '9' {
		d.pos++
	}
	return nil
}
