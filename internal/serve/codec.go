// Package serve is the HTTP/JSON serving tier over the view-object
// layer: instantiation and the §5 update translations (VO-CD, VO-CI,
// VO-R) exposed as REST-ish endpoints, with admission control that sheds
// load instead of queueing it (DESIGN.md §14).
//
// The package splits into a value/instance codec (this file and doc.go)
// and the HTTP server proper (server.go). The codec exists because
// encoding/json alone cannot round-trip reldb values: JSON numbers lose
// int64 precision past 2^53 and erase the Int/Float kind tag (reldb
// stores Int values in Float attributes — "cross-kind" values — and the
// two compare differently), and JSON strings silently replace invalid
// UTF-8 with U+FFFD. The codec's tagged forms carry exactly enough to
// reproduce the value byte-for-byte under the snapshot codec's canonical
// encoding (reldb.AppendBinaryValue), which the property tests assert.
package serve

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"

	"penguin/internal/reldb"
)

// Wire forms (the JSON side of the codec):
//
//	Null          null
//	Bool          true / false
//	String        "..." when valid UTF-8, else {"bytes":"<base64>"}
//	Int           {"int":"<decimal>"}      (string: int64 > 2^53 survives)
//	Float         {"float":"<shortest>"}   (strconv 'g'/-1 round-trips
//	                                        every finite float and ±Inf)
//	Float (NaN)   {"bits":"<hex of Float64bits>","float":"NaN"}
//
// Every form is self-describing, so decoding needs no schema and
// cross-kind values keep their kind. The decoder additionally accepts
// bare JSON numbers as a convenience for handwritten requests (integral
// → Int, fractional → Float); canonical tagged forms are what the
// server emits.

// EncodeValue converts v to its JSON-ready wire form — a value
// json.Marshal serializes to the canonical encoding above.
func EncodeValue(v reldb.Value) any {
	switch v.Kind() {
	case reldb.KindNull:
		return nil
	case reldb.KindBool:
		b, _ := v.AsBool()
		return b
	case reldb.KindInt:
		n, _ := v.AsInt()
		return map[string]any{"int": strconv.FormatInt(n, 10)}
	case reldb.KindFloat:
		f, _ := v.AsFloat()
		if math.IsNaN(f) {
			// "NaN" names the class, not the value: payload bits differ
			// between NaNs and the decimal form cannot carry them.
			return map[string]any{
				"float": "NaN",
				"bits":  strconv.FormatUint(math.Float64bits(f), 16),
			}
		}
		return map[string]any{"float": strconv.FormatFloat(f, 'g', -1, 64)}
	case reldb.KindString:
		s, _ := v.AsString()
		if utf8.ValidString(s) {
			return s
		}
		return map[string]any{"bytes": base64.StdEncoding.EncodeToString([]byte(s))}
	default:
		return nil
	}
}

// AppendValue appends v's wire form to dst: exactly the bytes a
// json.Encoder with SetEscapeHTML(false) writes for EncodeValue(v),
// without the trailing newline. Tagged forms keep encoding/json's key
// order (map keys sorted bytewise: "bits" before "float").
func AppendValue(dst []byte, v reldb.Value) []byte {
	switch v.Kind() {
	case reldb.KindBool:
		b, _ := v.AsBool()
		return strconv.AppendBool(dst, b)
	case reldb.KindInt:
		n, _ := v.AsInt()
		dst = append(dst, `{"int":"`...)
		dst = strconv.AppendInt(dst, n, 10)
		return append(dst, `"}`...)
	case reldb.KindFloat:
		// The decimal, hex and "NaN" texts are plain ASCII that JSON
		// strings carry unescaped.
		f, _ := v.AsFloat()
		if math.IsNaN(f) {
			dst = append(dst, `{"bits":"`...)
			dst = strconv.AppendUint(dst, math.Float64bits(f), 16)
			return append(dst, `","float":"NaN"}`...)
		}
		dst = append(dst, `{"float":"`...)
		dst = strconv.AppendFloat(dst, f, 'g', -1, 64)
		return append(dst, `"}`...)
	case reldb.KindString:
		s, _ := v.AsString()
		if utf8.ValidString(s) {
			return appendString(dst, s)
		}
		dst = append(dst, `{"bytes":"`...)
		dst = base64.StdEncoding.AppendEncode(dst, []byte(s))
		return append(dst, `"}`...)
	default:
		return append(dst, "null"...)
	}
}

// appendString appends s as a JSON string literal, escaped exactly as
// encoding/json escapes with HTML escaping off: `"` and `\`, the short
// forms \b \f \n \r \t, \u00XX for the other control bytes, \ufffd for
// each byte of invalid UTF-8, and \u2028 / \u2029.
func appendString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// DecodeValue parses one decoded-JSON value (an element of the tree
// json.Unmarshal produces — prefer a json.Decoder with UseNumber so
// large integers reach us undamaged) back into a reldb.Value.
func DecodeValue(raw any) (reldb.Value, error) {
	switch x := raw.(type) {
	case nil:
		return reldb.Null(), nil
	case bool:
		return reldb.Bool(x), nil
	case string:
		return reldb.String(x), nil
	case json.Number:
		return decodeNumber(string(x))
	case float64:
		// json.Unmarshal without UseNumber: precision past 2^53 is
		// already gone; preserve the integral/fractional split.
		if x == math.Trunc(x) && !math.IsInf(x, 0) {
			return reldb.Int(int64(x)), nil
		}
		return reldb.Float(x), nil
	case map[string]any:
		return decodeTagged(x)
	default:
		return reldb.Null(), fmt.Errorf("serve: cannot decode %T as a value", raw)
	}
}

// decodeNumber maps a bare JSON number to Int when it is written as an
// integer, Float otherwise.
func decodeNumber(s string) (reldb.Value, error) {
	if !strings.ContainsAny(s, ".eE") {
		n, err := strconv.ParseInt(s, 10, 64)
		if err == nil {
			return reldb.Int(n), nil
		}
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return reldb.Null(), fmt.Errorf("serve: bad number %q", s)
	}
	return reldb.Float(f), nil
}

// decodeTagged handles the {"int":...}, {"float":...}, {"bytes":...}
// wire forms.
func decodeTagged(m map[string]any) (reldb.Value, error) {
	if raw, ok := m["int"]; ok {
		if len(m) != 1 {
			return reldb.Null(), fmt.Errorf("serve: int form carries extra fields")
		}
		s, ok := raw.(string)
		if !ok {
			return reldb.Null(), fmt.Errorf("serve: int form must hold a string, got %T", raw)
		}
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return reldb.Null(), fmt.Errorf("serve: bad int %q", s)
		}
		return reldb.Int(n), nil
	}
	if raw, ok := m["float"]; ok {
		s, ok := raw.(string)
		if !ok {
			return reldb.Null(), fmt.Errorf("serve: float form must hold a string, got %T", raw)
		}
		if bitsRaw, ok := m["bits"]; ok {
			if len(m) != 2 {
				return reldb.Null(), fmt.Errorf("serve: float form carries extra fields")
			}
			bs, ok := bitsRaw.(string)
			if !ok {
				return reldb.Null(), fmt.Errorf("serve: bits must hold a string, got %T", bitsRaw)
			}
			bits, err := strconv.ParseUint(bs, 16, 64)
			if err != nil {
				return reldb.Null(), fmt.Errorf("serve: bad float bits %q", bs)
			}
			f := math.Float64frombits(bits)
			if !math.IsNaN(f) {
				// bits are the NaN escape hatch only; finite floats
				// must use the decimal form, keeping one canonical
				// encoding per value.
				return reldb.Null(), fmt.Errorf("serve: bits %q is not a NaN", bs)
			}
			return reldb.Float(f), nil
		}
		if len(m) != 1 {
			return reldb.Null(), fmt.Errorf("serve: float form carries extra fields")
		}
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return reldb.Null(), fmt.Errorf("serve: bad float %q", s)
		}
		return reldb.Float(f), nil
	}
	if raw, ok := m["bytes"]; ok {
		if len(m) != 1 {
			return reldb.Null(), fmt.Errorf("serve: bytes form carries extra fields")
		}
		s, ok := raw.(string)
		if !ok {
			return reldb.Null(), fmt.Errorf("serve: bytes form must hold a string, got %T", raw)
		}
		b, err := base64.StdEncoding.DecodeString(s)
		if err != nil {
			return reldb.Null(), fmt.Errorf("serve: bad base64: %v", err)
		}
		return reldb.String(string(b)), nil
	}
	return reldb.Null(), fmt.Errorf("serve: object value carries no int/float/bytes tag")
}

// EncodeTuple converts a tuple to a JSON-ready array of wire forms.
func EncodeTuple(t reldb.Tuple) []any {
	out := make([]any, len(t))
	for i, v := range t {
		out[i] = EncodeValue(v)
	}
	return out
}

// DecodeTuple parses an array of decoded-JSON values into a tuple.
func DecodeTuple(raw []any) (reldb.Tuple, error) {
	t := make(reldb.Tuple, len(raw))
	for i, rv := range raw {
		v, err := DecodeValue(rv)
		if err != nil {
			return nil, fmt.Errorf("element %d: %w", i, err)
		}
		t[i] = v
	}
	return t, nil
}
