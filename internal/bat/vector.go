package bat

import (
	"fmt"
	"math"
)

// Oid is a row object identifier.
type Oid uint64

// NilOid is the sentinel for a missing oid.
const NilOid = Oid(math.MaxUint64)

// Date is a day count since 1970-01-01. The TPC-H generator and the
// date arithmetic in query templates use this representation.
type Date int32

// Nil sentinels per base type, MonetDB style.
const (
	NilInt   = int64(math.MinInt64)
	NilDate  = Date(math.MinInt32)
	NilOidV  = NilOid
	nilStrRn = '\x00'
)

// NilStr is the sentinel for a missing string value.
const NilStr = "\x00"

// NilFloat reports a missing float value.
func NilFloat() float64 { return math.NaN() }

// IsNilFloat reports whether f is the float nil sentinel.
func IsNilFloat(f float64) bool { return math.IsNaN(f) }

// Kind enumerates the base column types supported by the engine.
type Kind uint8

// Base type kinds.
const (
	KOid Kind = iota
	KInt
	KFloat
	KStr
	KDate
	KBool
)

// String returns the MAL-style type name.
func (k Kind) String() string {
	switch k {
	case KOid:
		return ":oid"
	case KInt:
		return ":int"
	case KFloat:
		return ":dbl"
	case KStr:
		return ":str"
	case KDate:
		return ":date"
	case KBool:
		return ":bit"
	}
	return fmt.Sprintf(":kind(%d)", uint8(k))
}

// ElemSize returns the in-memory size in bytes of one element of the
// kind, used for recycle pool memory accounting. A string is its
// dictionary code; a dictionary is charged at vector level.
func (k Kind) ElemSize() int64 {
	switch k {
	case KOid, KInt, KFloat:
		return 8
	case KDate:
		return 4
	case KBool:
		return 1
	case KStr:
		return 4 // a dictionary code
	}
	return 8
}

// Vector is a typed column of values. Implementations share underlying
// storage when sliced, mirroring MonetDB's BAT views.
type Vector interface {
	// Kind returns the base type of the vector.
	Kind() Kind
	// Len returns the number of elements.
	Len() int
	// ByteSize returns the memory attributed to this vector. Views over
	// shared storage report only their administrative overhead.
	ByteSize() int64
	// Slice returns a view of elements [i, j). The view shares storage
	// but none of the room past j (see the storage contract above Extend).
	Slice(i, j int) Vector
	// Get returns the element at index i boxed as an any. Intended for
	// tests, debugging and the generic fallback paths; hot operator
	// paths type-switch on the concrete vector types instead.
	Get(i int) any
}

// viewOverhead is the administrative cost we attribute to a vector view
// that shares storage with another vector (slice headers, bookkeeping).
const viewOverhead = int64(48)

// Oids is a materialised oid vector.
type Oids struct {
	V    []Oid
	view bool
	post *LazyPostings // the inverse of V, when its owner attached one
}

// NewOids wraps a slice of oids as a vector.
func NewOids(v []Oid) *Oids { return &Oids{V: v} }

// Kind implements Vector.
func (o *Oids) Kind() Kind { return KOid }

// Len implements Vector.
func (o *Oids) Len() int { return len(o.V) }

// ByteSize implements Vector.
func (o *Oids) ByteSize() int64 {
	if o.view {
		return viewOverhead
	}
	return int64(len(o.V)) * 8
}

// Slice implements Vector.
func (o *Oids) Slice(i, j int) Vector { return &Oids{V: o.V[i:j:j], view: true} }

// Get implements Vector.
func (o *Oids) Get(i int) any { return o.V[i] }

// DenseOids is a virtual oid vector holding the dense sequence
// Start, Start+1, ..., Start+N-1 without materialising it. It models
// MonetDB's void columns.
type DenseOids struct {
	Start Oid
	N     int
}

// NewDense returns a dense oid vector of n elements starting at start.
func NewDense(start Oid, n int) *DenseOids { return &DenseOids{Start: start, N: n} }

// Kind implements Vector.
func (d *DenseOids) Kind() Kind { return KOid }

// Len implements Vector.
func (d *DenseOids) Len() int { return d.N }

// ByteSize implements Vector. Dense sequences cost only their descriptor.
func (d *DenseOids) ByteSize() int64 { return 16 }

// Slice implements Vector.
func (d *DenseOids) Slice(i, j int) Vector {
	return &DenseOids{Start: d.Start + Oid(i), N: j - i}
}

// Get implements Vector.
func (d *DenseOids) Get(i int) any { return d.Start + Oid(i) }

// At returns the oid at index i.
func (d *DenseOids) At(i int) Oid { return d.Start + Oid(i) }

// appendTo appends the oids at indices [i, j) to dst.
func (d *DenseOids) appendTo(dst []Oid, i, j int) []Oid {
	for ; i < j; i++ {
		dst = append(dst, d.At(i))
	}
	return dst
}

// Ints is an int64 vector.
type Ints struct {
	V    []int64
	view bool
}

// NewInts wraps a slice of int64 as a vector.
func NewInts(v []int64) *Ints { return &Ints{V: v} }

// Kind implements Vector.
func (x *Ints) Kind() Kind { return KInt }

// Len implements Vector.
func (x *Ints) Len() int { return len(x.V) }

// ByteSize implements Vector.
func (x *Ints) ByteSize() int64 {
	if x.view {
		return viewOverhead
	}
	return int64(len(x.V)) * 8
}

// Slice implements Vector.
func (x *Ints) Slice(i, j int) Vector { return &Ints{V: x.V[i:j:j], view: true} }

// Get implements Vector.
func (x *Ints) Get(i int) any { return x.V[i] }

// Floats is a float64 vector.
type Floats struct {
	V    []float64
	view bool
}

// NewFloats wraps a slice of float64 as a vector.
func NewFloats(v []float64) *Floats { return &Floats{V: v} }

// Kind implements Vector.
func (x *Floats) Kind() Kind { return KFloat }

// Len implements Vector.
func (x *Floats) Len() int { return len(x.V) }

// ByteSize implements Vector.
func (x *Floats) ByteSize() int64 {
	if x.view {
		return viewOverhead
	}
	return int64(len(x.V)) * 8
}

// Slice implements Vector.
func (x *Floats) Slice(i, j int) Vector { return &Floats{V: x.V[i:j:j], view: true} }

// Get implements Vector.
func (x *Floats) Get(i int) any { return x.V[i] }

// Strings is a string vector: one 4-byte code per row into a
// dictionary (see Dict). Vectors derived from one another — slices,
// gathers, merges, extensions — share their source's dictionary, so
// equal codes mean equal values among them. Values decode only where
// they leave the engine: Get, the wire and the store codec.
type Strings struct {
	C    []uint32
	D    *Dict
	own  bool // D was built for this vector: its bytes are charged here
	view bool
}

// NewStrings encodes v into a vector over a dictionary of its own.
func NewStrings(v []string) *Strings {
	codes, d := encodeFresh(v)
	return &Strings{C: codes, D: d, own: true}
}

// StringsOf wraps codes into d as a vector sharing d.
func StringsOf(codes []uint32, d *Dict) *Strings { return &Strings{C: codes, D: d} }

// Kind implements Vector.
func (x *Strings) Kind() Kind { return KStr }

// Len implements Vector.
func (x *Strings) Len() int { return len(x.C) }

// ByteSize implements Vector: 4 bytes a row, plus the dictionary when
// it was built for this vector. A dictionary shared with the column it
// came from is charged to no result.
func (x *Strings) ByteSize() int64 {
	if x.view {
		return viewOverhead
	}
	sz := int64(len(x.C)) * 4
	if x.own {
		sz += x.D.ByteSize()
	}
	return sz
}

// Slice implements Vector.
func (x *Strings) Slice(i, j int) Vector { return &Strings{C: x.C[i:j:j], D: x.D, view: true} }

// Get implements Vector.
func (x *Strings) Get(i int) any { return x.At(i) }

// At returns the value at index i.
func (x *Strings) At(i int) string { return x.D.Values()[x.C[i]] }

// Decode returns the vector's values.
func (x *Strings) Decode() []string {
	vals := x.D.Values()
	out := make([]string, len(x.C))
	for i, c := range x.C {
		out[i] = vals[c]
	}
	return out
}

// codesIn returns x's codes in d, adding to d the values it lacks.
func (x *Strings) codesIn(d *Dict) []uint32 {
	if x.D == d {
		return x.C
	}
	return d.Encode(x.Decode())
}

// Dates is a Date vector.
type Dates struct {
	V    []Date
	view bool
}

// NewDates wraps a slice of dates as a vector.
func NewDates(v []Date) *Dates { return &Dates{V: v} }

// Kind implements Vector.
func (x *Dates) Kind() Kind { return KDate }

// Len implements Vector.
func (x *Dates) Len() int { return len(x.V) }

// ByteSize implements Vector.
func (x *Dates) ByteSize() int64 {
	if x.view {
		return viewOverhead
	}
	return int64(len(x.V)) * 4
}

// Slice implements Vector.
func (x *Dates) Slice(i, j int) Vector { return &Dates{V: x.V[i:j:j], view: true} }

// Get implements Vector.
func (x *Dates) Get(i int) any { return x.V[i] }

// Bools is a bool vector.
type Bools struct {
	V    []bool
	view bool
}

// NewBools wraps a slice of bools as a vector.
func NewBools(v []bool) *Bools { return &Bools{V: v} }

// Kind implements Vector.
func (x *Bools) Kind() Kind { return KBool }

// Len implements Vector.
func (x *Bools) Len() int { return len(x.V) }

// ByteSize implements Vector.
func (x *Bools) ByteSize() int64 {
	if x.view {
		return viewOverhead
	}
	return int64(len(x.V))
}

// Slice implements Vector.
func (x *Bools) Slice(i, j int) Vector { return &Bools{V: x.V[i:j:j], view: true} }

// Get implements Vector.
func (x *Bools) Get(i int) any { return x.V[i] }

// EmptyVector returns a zero-length vector of the given kind.
func EmptyVector(k Kind) Vector {
	switch k {
	case KOid:
		return &Oids{}
	case KInt:
		return &Ints{}
	case KFloat:
		return &Floats{}
	case KStr:
		return NewStrings(nil)
	case KDate:
		return &Dates{}
	case KBool:
		return &Bools{}
	}
	panic(fmt.Sprintf("bat: empty vector of unknown kind %d", k))
}

// Storage contract. A vector is immutable below its length: nothing
// ever rewrites an element a published header can reach. The room
// between a header's length and its backing array's capacity belongs to
// whoever owns that header — a catalog column or its live tail, a pool
// entry's maintained rowset —
// and Extend fills it without disturbing any header published earlier:
// they keep their length and never see the new slots. Slice clips the
// capacity it hands out, so a view owns no room and extending one
// always copies.

// growCap is the capacity a vector of n elements is given when it has
// to move: a bounded step of room (n/16) rather than Go's 1.25x, so the
// slack a growing column carries stays a few percent of its size.
func growCap(n int) int { return n + n/16 }

func extend[T any](v, d []T) []T {
	if len(d) > cap(v)-len(v) {
		v = append(make([]T, 0, growCap(len(v)+len(d))), v...)
	}
	return append(v, d...)
}

// Extend returns a vector holding v's elements followed by d's. When
// v's backing array has room the new elements are written past v's
// length and the result shares v's storage; otherwise the storage
// moves, with room for the extensions to come. v itself is unchanged
// either way. The caller must own v's room (see the storage contract):
// two Extends of one header would hand out the same slots twice. A
// string d is translated into v's dictionary, adding the values it
// lacks (a no-op when they share one).
func Extend(v, d Vector) Vector {
	if v.Kind() != d.Kind() {
		panic(fmt.Sprintf("bat: extend of mismatched kinds %v and %v", v.Kind(), d.Kind()))
	}
	switch vv := v.(type) {
	case *Oids:
		return NewOids(extend(vv.V, MaterialiseOids(d)))
	case *DenseOids:
		out := make([]Oid, 0, growCap(vv.N+d.Len()))
		return NewOids(append(vv.appendTo(out, 0, vv.N), MaterialiseOids(d)...))
	case *Ints:
		return NewInts(extend(vv.V, d.(*Ints).V))
	case *Floats:
		return NewFloats(extend(vv.V, d.(*Floats).V))
	case *Strings:
		return &Strings{C: extend(vv.C, d.(*Strings).codesIn(vv.D)), D: vv.D, own: vv.own}
	case *Dates:
		return NewDates(extend(vv.V, d.(*Dates).V))
	case *Bools:
		return NewBools(extend(vv.V, d.(*Bools).V))
	}
	panic("bat: extend of unknown vector type")
}

// AppendVectors concatenates two vectors of the same kind into a newly
// materialised vector. It is used by delta propagation and combined
// subsumption merges.
func AppendVectors(a, b Vector) Vector { return Extend(a.Slice(0, a.Len()), b) }

func drop[T any, I ~int | ~uint64](v []T, pos []I) []T {
	// Copy the whole backing array, room included, then close the gaps.
	// Appending to nil is the one allocation the runtime does not zero
	// first — half the cost of copying a large vector — and taking the
	// room along means a delete does not cost its owner the room its
	// last move bought. The rows a delete removes tend to be recent, so
	// little is moved twice.
	out := append([]T(nil), v[:cap(v)]...)[:len(v)]
	if len(pos) == 0 {
		return out
	}
	to := int(pos[0])
	for i, p := range pos {
		next := len(v)
		if i+1 < len(pos) {
			next = int(pos[i+1])
		}
		to += copy(out[to:], v[int(p)+1:next])
	}
	return out[:to]
}

// Drop materialises v without the elements at the given positions,
// which must be ascending and distinct. The result owns fresh storage
// with as much room as v had, plus the slots the dropped elements gave
// up. The caller must be allowed to read v's room (be its owner, or
// hold whatever lock its owner extends it under).
func Drop[I ~int | ~uint64](v Vector, pos []I) Vector {
	switch vv := v.(type) {
	case *Oids:
		return NewOids(drop(vv.V, pos))
	case *DenseOids:
		out := make([]Oid, 0, growCap(vv.N-len(pos))) // no room to inherit: a growth step's worth
		from := 0
		for _, p := range pos {
			out = vv.appendTo(out, from, int(p))
			from = int(p) + 1
		}
		return NewOids(vv.appendTo(out, from, vv.N))
	case *Ints:
		return NewInts(drop(vv.V, pos))
	case *Floats:
		return NewFloats(drop(vv.V, pos))
	case *Strings:
		return &Strings{C: drop(vv.C, pos), D: vv.D, own: vv.own}
	case *Dates:
		return NewDates(drop(vv.V, pos))
	case *Bools:
		return NewBools(drop(vv.V, pos))
	}
	panic("bat: drop of unknown vector type")
}

// OidAt extracts the oid at index i from an oid-kinded vector.
func OidAt(v Vector, i int) Oid {
	switch o := v.(type) {
	case *Oids:
		return o.V[i]
	case *DenseOids:
		return o.At(i)
	}
	panic("bat: OidAt on non-oid vector")
}

// MaterialiseOids converts any oid-kinded vector into a plain []Oid.
func MaterialiseOids(v Vector) []Oid {
	switch o := v.(type) {
	case *Oids:
		return o.V
	case *DenseOids:
		return o.appendTo(make([]Oid, 0, o.N), 0, o.N)
	}
	panic("bat: MaterialiseOids on non-oid vector")
}
