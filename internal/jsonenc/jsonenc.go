// Package jsonenc writes and reads JSON as encoding/json does. It appends
// numbers and strings byte for byte as encoding/json writes them: the
// response types that encode themselves by appending (eval.Result,
// plan.Plan, plan.PeriodPlan) and the service's GET answers share these
// two appenders, so every number and string the API prints has one form
// whichever path printed it. And Decode is the one strict decoder that
// every request body, scenario, sweep spec and model file goes through:
// a single pass over the input, in the language of encoding/json's strict
// decoder (decode.go).
package jsonenc

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"unicode/utf8"
)

// AppendFloat appends f as encoding/json encodes a float64: the shortest
// round-trip digits in 'f' form, or in 'e' form below 1e-6 and from 1e21
// with a one-digit negative exponent unpadded ("1e-7", not "1e-07"). JSON
// has no NaN or infinity, so for those it returns b unchanged and the
// *json.UnsupportedValueError json.Marshal returns.
func AppendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	// Below 2⁵³ every integer is a float64 and its neighbours are at most
	// 1 away, so an integral value's shortest digits are its integer
	// digits, which strconv.AppendInt writes without the digit search.
	// Negative zero prints as "-0" and takes the general path.
	if i := int64(f); float64(i) == f && i > -1<<53 && i < 1<<53 && (i != 0 || !math.Signbit(f)) {
		return strconv.AppendInt(b, i, 10), nil
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

const hex = "0123456789abcdef"

// htmlSafe marks the ASCII bytes AppendString copies as they are: the
// printable ones but the quote, the backslash and the HTML-sensitive <,
// > and &.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for c := byte(0x20); c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// AppendString appends s as a quoted JSON string escaped as json.Marshal
// escapes it: quote and backslash; \b, \f, \n, \r and \t by name; other
// control bytes and the HTML-sensitive <, > and & as \u00XX; U+2028 and
// U+2029 as \u2028 and \u2029; and each byte of invalid UTF-8 as \ufffd.
func AppendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
