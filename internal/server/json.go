package server

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"

	"repro/internal/algebra"
	"repro/internal/bat"
	"repro/internal/mal"
)

// jsonValue converts an engine tail value into its JSON encoding for
// the encoding/json path (?trace=1): numbers stay numbers, dates render
// as "YYYY-MM-DD", oids as numbers, and a NaN or infinite float — the
// float nil, which JSON cannot spell — as null. int64 is encoded as a
// JSON number; callers that need 64-bit exactness should treat the wire
// format as approximate above 2^53 (the SkyServer objid space fits).
func jsonValue(v any) any {
	switch x := v.(type) {
	case bat.Date:
		y, m, d := algebra.CivilFromDays(int32(x))
		return fmt.Sprintf("%04d-%02d-%02d", y, m, d)
	case bat.Oid:
		return uint64(x)
	case float64:
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil
		}
		return v
	default:
		return v
	}
}

// The /query response encoder. appendQueryResponse writes the body of a
// successful non-trace /query straight from the typed result vectors,
// byte for byte what encoding/json (HTML escaping off, trailing
// newline) produces for the equivalent QueryResponse, except that a
// NaN or infinite float is written as null instead of failing the
// encoding. appendCell is the one per-value formatter; the TCP
// protocol's rows use it too.

// wire selects appendCell's spelling of a value.
type wire bool

const (
	jsonWire wire = true  // a JSON value
	rowWire  wire = false // a TCP row field: raw text, framing characters escaped
)

// appendQueryResponse appends the JSON body of a /query answer. Result
// columns are capped at maxRows values, as in encodeResult.
func appendQueryResponse(dst []byte, results []mal.Result, maxRows int, st mal.QueryStats) []byte {
	dst = append(dst, `{"results":[`...)
	for i, r := range results {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendResultColumn(dst, r, maxRows)
	}
	s := encodeStats(st)
	dst = append(dst, `],"stats":{"elapsed_us":`...)
	dst = strconv.AppendInt(dst, s.ElapsedUS, 10)
	for _, f := range [...]struct {
		name string
		v    int
	}{
		{`,"marked":`, s.Marked}, {`,"hits":`, s.Hits}, {`,"hits_nonbind":`, s.HitsNonBind},
		{`,"local_hits":`, s.LocalHits}, {`,"global_hits":`, s.GlobalHits},
		{`,"subsumed":`, s.Subsumed}, {`,"combined":`, s.Combined},
	} {
		dst = strconv.AppendInt(append(dst, f.name...), int64(f.v), 10)
	}
	dst = strconv.AppendInt(append(dst, `,"saved_us":`...), s.SavedUS, 10)
	return append(dst, "}}\n"...)
}

// appendResultColumn appends one ResultColumn object.
func appendResultColumn(dst []byte, r mal.Result, maxRows int) []byte {
	dst = appendJSONString(append(dst, `{"name":`...), r.Name)
	dst = append(dst, `,"values":`...)
	tuples, truncated := 1, false
	switch {
	case r.Val.Kind != mal.VBat:
		dst = appendScalar(append(dst, '['), r.Val)
		dst = append(dst, ']')
	case r.Val.Bat == nil:
		tuples = 0
		dst = append(dst, "null"...)
	default:
		b := r.Val.Bat
		tuples = b.Len()
		limit := min(tuples, maxRows)
		truncated = limit < tuples
		dst = append(dst, '[')
		for i := 0; i < limit; i++ {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendCell(dst, b.Tail, i, jsonWire)
		}
		dst = append(dst, ']')
	}
	dst = strconv.AppendInt(append(dst, `,"tuples":`...), int64(tuples), 10)
	if truncated {
		dst = append(dst, `,"truncated":true`...)
	}
	return append(dst, '}')
}

// appendScalar appends a scalar result as a JSON value.
func appendScalar(dst []byte, v mal.Value) []byte {
	switch v.Kind {
	case mal.VInt:
		return strconv.AppendInt(dst, v.I, 10)
	case mal.VFloat:
		return appendJSONFloat(dst, v.F)
	case mal.VStr:
		return appendJSONString(dst, v.S)
	case mal.VDate:
		return append(appendDate(append(dst, '"'), v.D), '"')
	case mal.VBool:
		return strconv.AppendBool(dst, v.B)
	case mal.VOid:
		return strconv.AppendUint(dst, uint64(v.O), 10)
	}
	panic(fmt.Sprintf("server: scalar result of kind %v", v.Kind))
}

// appendCell appends tail value i of a result column in the given wire
// spelling. Numbers, booleans and oids read the same on both wires; a
// JSON string or date is quoted and escaped, a row field is raw with
// its framing characters escaped, and a float follows each wire's
// number syntax (JSON's, or Go's shortest %v form on rows).
func appendCell(dst []byte, col bat.Vector, i int, w wire) []byte {
	switch c := col.(type) {
	case *bat.Ints:
		return strconv.AppendInt(dst, c.V[i], 10)
	case *bat.Floats:
		if w == jsonWire {
			return appendJSONFloat(dst, c.V[i])
		}
		return strconv.AppendFloat(dst, c.V[i], 'g', -1, 64)
	case *bat.Strings:
		s := c.At(i)
		if w == jsonWire {
			return appendJSONString(dst, s)
		}
		return appendRowEscaped(dst, s)
	case *bat.Dates:
		if w == jsonWire {
			return append(appendDate(append(dst, '"'), c.V[i]), '"')
		}
		return appendDate(dst, c.V[i])
	case *bat.Bools:
		return strconv.AppendBool(dst, c.V[i])
	}
	// Oid columns (materialised or dense).
	return strconv.AppendUint(dst, uint64(col.Get(i).(bat.Oid)), 10)
}

// appendDate appends a date as fmt's "%04d-%02d-%02d" would.
func appendDate(dst []byte, d bat.Date) []byte {
	y, m, day := algebra.CivilFromDays(int32(d))
	dst = appendPadded(dst, y, 4)
	dst = appendPadded(append(dst, '-'), m, 2)
	return appendPadded(append(dst, '-'), day, 2)
}

// appendPadded appends v zero-padded to width characters, sign
// included, like fmt's %0<width>d.
func appendPadded(dst []byte, v, width int) []byte {
	u := uint64(v)
	if v < 0 {
		dst = append(dst, '-')
		width--
		u = uint64(-v)
	}
	var buf [20]byte
	digits := strconv.AppendUint(buf[:0], u, 10)
	for n := len(digits); n < width; n++ {
		dst = append(dst, '0')
	}
	return append(dst, digits...)
}

// appendJSONFloat appends f as encoding/json formats a float64, except
// that NaN and ±Inf, which JSON has no spelling for, become null (the
// float nil).
func appendJSONFloat(dst []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(dst, "null"...)
	}
	// ES6 number formatting, as encoding/json: shortest digits, %e
	// outside [1e-6, 1e21), with a single-digit negative exponent
	// written without its leading zero.
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string exactly as encoding/json
// does with HTML escaping off: quotes, backslashes and control
// characters escaped, invalid UTF-8 replaced by U+FFFD, and U+2028 /
// U+2029 escaped for JavaScript.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
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
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	return append(append(dst, s[start:]...), '"')
}

// appendRowEscaped appends s with the TCP framing characters — tab,
// newline, carriage return and the escape character itself — escaped.
func appendRowEscaped(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\':
			dst = append(dst, '\\', '\\')
		case '\t':
			dst = append(dst, '\\', 't')
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\r':
			dst = append(dst, '\\', 'r')
		default:
			dst = append(dst, c)
		}
	}
	return dst
}
