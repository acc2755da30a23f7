package mal

import (
	"fmt"
	"strconv"

	"repro/internal/bat"
	"repro/internal/catalog"
)

// ValueKind tags the dynamic type of a runtime Value.
type ValueKind uint8

// Value kinds.
const (
	VBat ValueKind = iota
	VInt
	VFloat
	VStr
	VDate
	VBool
	VOid
	VVoid // unset / no value
)

// String returns the MAL-ish name of the kind.
func (k ValueKind) String() string {
	switch k {
	case VBat:
		return ":bat"
	case VInt:
		return ":int"
	case VFloat:
		return ":dbl"
	case VStr:
		return ":str"
	case VDate:
		return ":date"
	case VBool:
		return ":bit"
	case VOid:
		return ":oid"
	case VVoid:
		return ":void"
	}
	return ":?"
}

// Value is a runtime value on the interpreter stack: either a BAT or a
// scalar. Prov carries the recycle pool entry id that produced the
// value (0 when unknown); it implements the lineage needed for
// bottom-up sequence matching (paper §3.4, Alternative 1).
type Value struct {
	// Kind, B and D share the first word, so Ref costs a Value no
	// bytes (72): values are copied on every instruction.
	Kind ValueKind
	B    bool
	D    bat.Date
	Bat  *bat.BAT
	I    int64
	F    float64
	S    string
	O    bat.Oid

	// Ref is, on a BAT value whose Bat is nil, a bind not read yet: its
	// rows are materialised at the version it names only by what reads
	// them (Materialised), so binding and pooling a bind copy nothing.
	Ref *catalog.Ref

	// Prov is the recycle pool entry id whose result this value is.
	Prov uint64
}

// Convenience constructors.

// BatV wraps a BAT as a Value.
func BatV(b *bat.BAT) Value { return Value{Kind: VBat, Bat: b} }

// RefV wraps a bind not read yet as a Value.
func RefV(r *catalog.Ref) Value { return Value{Kind: VBat, Ref: r} }

// Materialised returns v with a bind's rows read into Bat, at the
// version the bind names: what a kernel reads, and what leaves the
// engine (a query's results), carries rows, not names.
func (v Value) Materialised() Value {
	if v.Bat == nil && v.Ref != nil {
		v.Bat, v.Ref = v.Ref.Rows(), nil
	}
	return v
}

// IntV wraps an int64.
func IntV(v int64) Value { return Value{Kind: VInt, I: v} }

// FloatV wraps a float64.
func FloatV(v float64) Value { return Value{Kind: VFloat, F: v} }

// StrV wraps a string.
func StrV(v string) Value { return Value{Kind: VStr, S: v} }

// DateV wraps a date.
func DateV(v bat.Date) Value { return Value{Kind: VDate, D: v} }

// BoolV wraps a bool.
func BoolV(v bool) Value { return Value{Kind: VBool, B: v} }

// OidV wraps an oid.
func OidV(v bat.Oid) Value { return Value{Kind: VOid, O: v} }

// VoidV is the unset value.
func VoidV() Value { return Value{Kind: VVoid} }

// Scalar unboxes a scalar Value for the algebra layer (range bounds
// etc.). Panics on BATs.
func (v Value) Scalar() any {
	switch v.Kind {
	case VInt:
		return v.I
	case VFloat:
		return v.F
	case VStr:
		return v.S
	case VDate:
		return v.D
	case VBool:
		return v.B
	case VOid:
		return v.O
	}
	panic(fmt.Sprintf("mal: Scalar() of %v", v.Kind))
}

// IsBat reports whether the value holds a BAT.
func (v Value) IsBat() bool { return v.Kind == VBat }

// EqualConst compares two scalar values for exact equality. BAT values
// never compare equal through this path (their identity is their
// provenance).
func (v Value) EqualConst(o Value) bool {
	if v.Kind != o.Kind || v.Kind == VBat {
		return false
	}
	switch v.Kind {
	case VInt:
		return v.I == o.I
	case VFloat:
		return v.F == o.F
	case VStr:
		return v.S == o.S
	case VDate:
		return v.D == o.D
	case VBool:
		return v.B == o.B
	case VOid:
		return v.O == o.O
	case VVoid:
		return true
	}
	return false
}

// Key renders a canonical matching key for the value: scalars render
// their literal, BATs render their provenance entry id. Two
// instructions with equal op names and equal argument keys compute the
// same result, which is the recycler's run-time matching criterion.
func (v Value) Key() string {
	var buf [32]byte
	return string(v.AppendKey(buf[:0]))
}

// AppendKey appends Key's encoding to dst without allocating. Every
// key is a kind letter plus a form that cannot contain the separators
// the signature encoders join keys with, except a string, which is
// length-prefixed ("s3:a,b"): a key list therefore parses back
// unambiguously, so distinct operand lists never share a key.
func (v Value) AppendKey(dst []byte) []byte {
	switch v.Kind {
	case VBat:
		return strconv.AppendUint(append(dst, 'e'), v.Prov, 10)
	case VInt:
		return strconv.AppendInt(append(dst, 'i'), v.I, 10)
	case VFloat:
		return strconv.AppendFloat(append(dst, 'f'), v.F, 'g', -1, 64)
	case VStr:
		dst = strconv.AppendInt(append(dst, 's'), int64(len(v.S)), 10)
		return append(append(dst, ':'), v.S...)
	case VDate:
		return strconv.AppendInt(append(dst, 'd'), int64(v.D), 10)
	case VBool:
		if v.B {
			return append(dst, "bT"...)
		}
		return append(dst, "bF"...)
	case VOid:
		return strconv.AppendUint(append(dst, 'o'), uint64(v.O), 10)
	case VVoid:
		return append(dst, 'v')
	}
	return append(dst, '?')
}

// String renders the value for debugging and pool dumps.
func (v Value) String() string {
	switch v.Kind {
	case VBat:
		switch {
		case v.Bat != nil:
			return v.Bat.String()
		case v.Ref != nil:
			return v.Ref.String()
		}
		return "bat(nil)"
	case VInt:
		return strconv.FormatInt(v.I, 10)
	case VFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case VStr:
		return strconv.Quote(v.S)
	case VDate:
		y, m, d := civil(v.D)
		return fmt.Sprintf("%04d-%02d-%02d", y, m, d)
	case VBool:
		return strconv.FormatBool(v.B)
	case VOid:
		return strconv.FormatUint(uint64(v.O), 10) + "@0"
	case VVoid:
		return "nil"
	}
	return "?"
}

func civil(d bat.Date) (int, int, int) {
	// Mirror of algebra.CivilFromDays, duplicated to keep mal free of
	// an algebra dependency at the value level.
	z := int(d) + 719468
	var era int
	if z >= 0 {
		era = z / 146097
	} else {
		era = (z - 146096) / 146097
	}
	doe := z - era*146097
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365
	y := yoe + era*400
	doy := doe - (365*yoe + yoe/4 - yoe/100)
	mp := (5*doy + 2) / 153
	day := doy - (153*mp+2)/5 + 1
	var m int
	if mp < 10 {
		m = mp + 3
	} else {
		m = mp - 9
	}
	if m <= 2 {
		y++
	}
	return y, m, day
}

// dateFromCivil converts a civil date to the engine's day count
// (inverse of civil()).
func dateFromCivil(y, m, d int) bat.Date {
	if m <= 2 {
		y--
	}
	var era int
	if y >= 0 {
		era = y / 400
	} else {
		era = (y - 399) / 400
	}
	yoe := y - era*400
	var mp int
	if m > 2 {
		mp = m - 3
	} else {
		mp = m + 9
	}
	doy := (153*mp+2)/5 + d - 1
	doe := yoe*365 + yoe/4 - yoe/100 + doy
	return bat.Date(era*146097 + doe - 719468)
}

func oidOf(n uint64) bat.Oid { return bat.Oid(n) }

// Bytes returns the memory footprint of a value for recycle pool
// accounting: the BAT size for BATs (a bind's materialised at its
// version, catalog.Ref.ByteSize), a small constant for scalars.
func (v Value) Bytes() int64 {
	switch {
	case v.Kind != VBat:
	case v.Bat != nil:
		return v.Bat.ByteSize()
	case v.Ref != nil:
		return v.Ref.ByteSize()
	}
	return 16
}

// Tuples returns the row count for BAT values (a bind's is its
// version's live count), 1 for scalars.
func (v Value) Tuples() int {
	switch {
	case v.Kind != VBat:
	case v.Bat != nil:
		return v.Bat.Len()
	case v.Ref != nil:
		return v.Ref.Len()
	}
	return 1
}
