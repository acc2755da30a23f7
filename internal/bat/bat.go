package bat

import (
	"fmt"
	"sort"
	"strings"
)

// BAT is a binary association table: a mapping from a head column of
// oids to a tail column of typed values, schema BAT(head:oid, tail:any).
// Relational operators consume and produce BATs; auxiliary operators
// (reverse, mirror, markT) produce views that share storage.
type BAT struct {
	// Head holds the row identifiers. It is KOid in every BAT produced
	// by the engine, and frequently a DenseOids (void) vector.
	Head Vector
	// Tail holds the values, one per head entry.
	Tail Vector

	// TailSorted records that Tail is non-decreasing, enabling
	// binary-search range selects (a cheap "bat view" select, §2.3).
	TailSorted bool
	// HeadSorted records that Head is non-decreasing. Dense heads are
	// always sorted; operators preserve head order where possible.
	HeadSorted bool

	// KeyUnique records that head values are unique.
	KeyUnique bool
}

// New constructs a BAT over the given head and tail, which must have
// equal lengths.
func New(head, tail Vector) *BAT {
	if head.Len() != tail.Len() {
		panic(fmt.Sprintf("bat: head/tail length mismatch %d != %d", head.Len(), tail.Len()))
	}
	b := &BAT{Head: head, Tail: tail}
	if _, ok := head.(*DenseOids); ok {
		b.HeadSorted = true
		b.KeyUnique = true
	}
	return b
}

// NewDenseHead constructs a BAT with a dense head 0..len(tail)-1.
func NewDenseHead(tail Vector) *BAT {
	return New(NewDense(0, tail.Len()), tail)
}

// Len returns the number of (head, tail) pairs.
func (b *BAT) Len() int { return b.Head.Len() }

// TailKind returns the base type of the tail column.
func (b *BAT) TailKind() Kind { return b.Tail.Kind() }

// ByteSize returns the memory attributed to the BAT: the sum of its
// column costs plus a fixed descriptor overhead. Views over shared
// storage contribute only their administrative cost, implementing the
// paper's observation that keeping viewpoint intermediates is cheap.
func (b *BAT) ByteSize() int64 { return b.Head.ByteSize() + b.Tail.ByteSize() + 64 }

// Reverse returns a view with head and tail swapped. Zero-cost.
func (b *BAT) Reverse() *BAT {
	return &BAT{
		Head: b.Tail, Tail: b.Head,
		TailSorted: b.HeadSorted, HeadSorted: b.TailSorted,
	}
}

// Mirror returns a view whose tail is a mirror of the head. Zero-cost.
func (b *BAT) Mirror() *BAT {
	return &BAT{Head: b.Head, Tail: b.Head, HeadSorted: b.HeadSorted, TailSorted: b.HeadSorted, KeyUnique: b.KeyUnique}
}

// MarkT returns a BAT with the same head and a fresh dense sequence of
// oids starting at base in the tail. Zero-cost (dense tails are
// virtual).
func (b *BAT) MarkT(base Oid) *BAT {
	return &BAT{Head: b.Head, Tail: NewDense(base, b.Len()), HeadSorted: b.HeadSorted, TailSorted: true, KeyUnique: b.KeyUnique}
}

// Slice returns a view of rows [i, j).
func (b *BAT) Slice(i, j int) *BAT {
	return &BAT{
		Head: b.Head.Slice(i, j), Tail: b.Tail.Slice(i, j),
		TailSorted: b.TailSorted, HeadSorted: b.HeadSorted, KeyUnique: b.KeyUnique,
	}
}

// String renders a compact description for debugging and pool dumps.
func (b *BAT) String() string {
	return fmt.Sprintf("bat[:oid,%s]#%d", b.Tail.Kind(), b.Len())
}

// Dump renders up to max rows for tests and debugging.
func (b *BAT) Dump(max int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s {", b.String())
	n := b.Len()
	if max > 0 && n > max {
		n = max
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%v->%v", b.Head.Get(i), b.Tail.Get(i))
	}
	if n < b.Len() {
		sb.WriteString(", ...")
	}
	sb.WriteString("}")
	return sb.String()
}

// SortByHead returns a BAT with rows reordered so the head is
// non-decreasing. If the head is already sorted the receiver is
// returned unchanged.
func (b *BAT) SortByHead() *BAT {
	if b.HeadSorted {
		return b
	}
	idx := make([]int, b.Len())
	for i := range idx {
		idx[i] = i
	}
	heads := MaterialiseOids(b.Head)
	sort.SliceStable(idx, func(i, j int) bool { return heads[idx[i]] < heads[idx[j]] })
	out := Gather(b, idx)
	out.HeadSorted = true
	return out
}

// Gather materialises the rows of b at the given positional indices,
// in order. The result owns fresh storage.
func Gather(b *BAT, idx []int) *BAT {
	headOut := make([]Oid, len(idx))
	for i, p := range idx {
		headOut[i] = OidAt(b.Head, p)
	}
	return New(NewOids(headOut), GatherVector(b.Tail, idx))
}

// GatherVector materialises the elements of v at the given positional
// indices, in order.
func GatherVector(vec Vector, idx []int) Vector {
	switch t := vec.(type) {
	case *Ints:
		v := make([]int64, len(idx))
		for i, p := range idx {
			v[i] = t.V[p]
		}
		return NewInts(v)
	case *Floats:
		v := make([]float64, len(idx))
		for i, p := range idx {
			v[i] = t.V[p]
		}
		return NewFloats(v)
	case *Strings:
		v := make([]uint32, len(idx))
		for i, p := range idx {
			v[i] = t.C[p]
		}
		return StringsOf(v, t.D)
	case *Dates:
		v := make([]Date, len(idx))
		for i, p := range idx {
			v[i] = t.V[p]
		}
		return NewDates(v)
	case *Bools:
		v := make([]bool, len(idx))
		for i, p := range idx {
			v[i] = t.V[p]
		}
		return NewBools(v)
	case *Oids, *DenseOids:
		v := make([]Oid, len(idx))
		for i, p := range idx {
			v[i] = OidAt(vec, p)
		}
		return NewOids(v)
	default:
		panic("bat: gather of unknown vector type")
	}
}

// Append concatenates two BATs (used by delta propagation). The result
// owns fresh storage — unless one side is empty, when it is the other —
// and inherits no sortedness guarantees except what can be cheaply
// verified.
func Append(a, b *BAT) *BAT {
	if b.Len() == 0 {
		return a
	}
	if a.Len() == 0 {
		return b
	}
	return a.Slice(0, a.Len()).Extend(b)
}

// Extend is Append through a's own room: b's rows are written past a's
// length where a's vectors have room, a itself is unchanged, and the
// caller must own that room (see Extend for vectors; a view made by
// Slice owns none, so extending one copies).
func (a *BAT) Extend(b *BAT) *BAT {
	out := New(Extend(a.Head, b.Head), Extend(a.Tail, b.Tail))
	out.HeadSorted = a.HeadSorted && b.HeadSorted &&
		(a.Len() == 0 || b.Len() == 0 || OidAt(a.Head, a.Len()-1) <= OidAt(b.Head, 0))
	return out
}
