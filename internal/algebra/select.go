package algebra

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/bat"
)

// The selection kernel. Every row filter the engine runs — one select,
// uselect, selectNotNil, likeselect or notlikeselect instruction, the
// recycler's delta filter rule and combined subsumption's piecewise
// re-selects — is one Filter call with one Pred. The scan writes the
// positions of the surviving rows into a SelectionVector and only the
// survivors are materialised, once.
//
// Each predicate kind has one generic loop over the typed slice: store
// the position, advance the write cursor only when the predicate holds
// — no branch, no boxing, no append growth. Range bounds are normalised
// once per call into a closed typed interval that already excludes the
// nil sentinel, so the range loop is two comparisons per row and no nil
// test.
//
// Memory: a Filter allocates its result and nothing in proportion to
// its input. The scan writes into one column-sized selection borrowed
// from selPool, the gather copies the survivors out, and the buffer
// goes back before Filter returns, so no result aliases it.

// PredKind identifies what a Pred tests.
type PredKind uint8

// Predicate kinds.
const (
	// PredRange keeps the rows whose value lies in Range; nil values
	// never qualify.
	PredRange PredKind = iota
	// PredEq keeps the rows equal to V. Nil sentinels are not special
	// (one matches itself; float NaN matches nothing). It yields the
	// uselect shape: a tail sharing the head's storage, as MonetDB's
	// void-tailed uselect results do.
	PredEq
	// PredNotNil drops the rows holding the kind's nil sentinel.
	PredNotNil
	// PredLike and PredNotLike keep the non-nil strings that do / do not
	// match the SQL LIKE Pattern ('%' any run, '_' any character).
	PredLike
	PredNotLike
)

// Pred is the predicate a filter applies.
type Pred struct {
	Kind    PredKind
	Range   Range  // PredRange
	V       any    // PredEq
	Pattern string // PredLike, PredNotLike
}

// Filter returns the (head, tail) pairs of b that satisfy p. Head
// order is kept; KeyUnique survives range and equality predicates only.
//
// Over a tail-sorted BAT, Filter binary-searches p's run instead of
// scanning (§2.3: range selects over ordered columns are near-zero
// cost), and a range predicate returns that run as a zero-copy view.
// A not-nil predicate that drops nothing returns b itself.
func Filter(b *bat.BAT, p Pred) *bat.BAT {
	var sel bat.SelectionVector // nil: every row
	var buf selBuf              // borrowed by the scan or the sorted run
	defer buf.release()
	if b.TailSorted {
		if start, end, ok := sortedRun(b.Tail, &p); ok {
			if p.Kind == PredRange {
				out := b.Slice(start, end)
				out.TailSorted = true
				return out
			}
			sel = span(start, end, &buf)
		}
	}
	if sel == nil {
		sel = p.scan(b.Tail, &buf)
	}
	if p.Kind == PredNotNil && (sel == nil || len(sel) == b.Len()) {
		return b
	}
	if sel == nil {
		sel = span(0, b.Len(), &buf)
	}
	var out *bat.BAT
	if p.Kind == PredEq {
		out = uselectRows(b.Head, sel)
	} else {
		out = bat.GatherSel(b, sel)
	}
	out.HeadSorted = b.HeadSorted
	out.KeyUnique = b.KeyUnique && (p.Kind == PredRange || p.Kind == PredEq)
	return out
}

// uselectRows gathers head's oids at sel into a BAT of the uselect
// shape: its tail is its head.
func uselectRows(head bat.Vector, sel bat.SelectionVector) *bat.BAT {
	hv := bat.NewOids(bat.GatherOidsSel(head, sel))
	return bat.New(hv, hv.Slice(0, len(sel)))
}

// sortedRun binary-searches a sorted tail for the positions [start,
// end) that p keeps; ok is false where no search applies. Int-like
// kinds always qualify: their nil sentinel occupies an end of the sort
// order (ints and dates the minimum, oids the maximum) and the
// normalised interval excludes it. Float nil is NaN and string nil
// "\x00" sorts above "", so those search only between two given bounds,
// keeping the seed's boxed-Cmp behaviour there (a NaN compares equal to
// every bound); floats never search for equality.
func sortedRun(tail bat.Vector, p *Pred) (start, end int, ok bool) {
	r := p.Range
	switch p.Kind {
	case PredEq:
		r = point(p.V)
	case PredRange:
	default:
		return 0, 0, false
	}
	switch t := tail.(type) {
	case *bat.Ints:
		start, end = intRun(t.V, intDom, p)
	case *bat.Dates:
		start, end = intRun(t.V, dateDom, p)
	case *bat.Oids:
		start, end = intRun(t.V, oidDom, p)
	case *bat.DenseOids:
		if lo, hi, ok := oidDom.interval(p); ok {
			start, end = denseSpan(t, lo, hi)
		}
	case *bat.Floats:
		if p.Kind == PredEq || r.Lo == nil || r.Hi == nil {
			return 0, 0, false
		}
		start, end = sortedSpan(len(t.V), func(i int) float64 { return t.V[i] }, r.Lo.(float64), r.IncLo, r.Hi.(float64), r.IncHi)
	case *bat.Strings:
		if r.Lo == nil || r.Hi == nil {
			return 0, 0, false
		}
		vals := t.D.Values()
		start, end = sortedSpan(len(t.C), func(i int) string { return vals[t.C[i]] }, r.Lo.(string), r.IncLo, r.Hi.(string), r.IncHi)
	default:
		return 0, 0, false
	}
	return start, end, true
}

func intRun[T int64 | bat.Date | bat.Oid](v []T, d domain[T], p *Pred) (start, end int) {
	lo, hi, ok := d.interval(p)
	if !ok {
		return 0, 0
	}
	start, _ = slices.BinarySearch(v, lo)
	if end = len(v); hi+1 > hi {
		end, _ = slices.BinarySearch(v, hi+1)
	}
	return start, max(start, end)
}

// sortedSpan finds [start, end) of the n sorted values at(0..n-1)
// within the bounds. The tests are written so that an unordered
// element (NaN) compares equal to both bounds, as cmpOrdered does.
func sortedSpan[T cmp.Ordered](n int, at func(int) T, lo T, incLo bool, hi T, incHi bool) (int, int) {
	start := sort.Search(n, func(i int) bool { v := at(i); return v > lo || incLo && !(v < lo) })
	end := sort.Search(n, func(i int) bool { v := at(i); return v > hi || !incHi && !(v < hi) })
	return start, max(start, end)
}

// denseSpan intersects a dense oid run with the closed [lo, hi],
// returning positional [start, end).
func denseSpan(t *bat.DenseOids, lo, hi bat.Oid) (int, int) {
	if t.N == 0 {
		return 0, 0
	}
	last := t.Start + bat.Oid(t.N-1)
	lo, hi = max(lo, t.Start), min(hi, last)
	if lo > hi {
		return 0, 0
	}
	return int(lo - t.Start), int(hi-t.Start) + 1
}

// scan returns the positions of tail that p keeps, written into buf.
// The result is never nil, except that a predicate that keeps every row
// of a kind without a nil representation (a not-nil over bools or dense
// oids, a range holding both bools) returns nil, every row.
func (p *Pred) scan(tail bat.Vector, buf *selBuf) bat.SelectionVector {
	if p.Kind == PredLike || p.Kind == PredNotLike {
		t, ok := tail.(*bat.Strings)
		if !ok {
			panic(fmt.Sprintf("algebra: like filter over non-string tail %T", tail))
		}
		pat, want := p.Pattern, p.Kind == PredLike
		return scanDict(t, func(x string) bool { return x != bat.NilStr && likeMatch(pat, x) == want }, buf)
	}
	switch t := tail.(type) {
	case *bat.Ints:
		return scanNum(t.V, intDom, p, buf)
	case *bat.Dates:
		return scanNum(t.V, dateDom, p, buf)
	case *bat.Oids:
		return scanNum(t.V, oidDom, p, buf)
	case *bat.Floats:
		return scanNum(t.V, fltDom, p, buf)
	case *bat.Strings:
		switch p.Kind {
		case PredEq:
			return scanStrEq(t, p.V.(string), buf)
		case PredNotNil:
			return scanDict(t, func(x string) bool { return x != bat.NilStr }, buf)
		}
		return scanDict(t, p.Range.strKeep(), buf)
	case *bat.Bools:
		// No nil, and false < true: a range keeps one value, both or none.
		switch p.Kind {
		case PredEq:
			return scanEq(t.V, p.V.(bool), buf)
		case PredNotNil:
			return nil
		}
		switch f, tr := p.Range.Contains(point(false)), p.Range.Contains(point(true)); {
		case f && tr:
			return nil
		case f || tr:
			return scanEq(t.V, tr, buf)
		}
	case *bat.DenseOids:
		// Positions are values here: the kept rows are one run.
		if p.Kind == PredNotNil {
			return nil
		}
		start, end := 0, 0
		if lo, hi, ok := oidDom.interval(p); ok {
			start, end = denseSpan(t, lo, hi)
		}
		return span(start, end, buf)
	default:
		panic(fmt.Sprintf("algebra: filter over unsupported tail %T", tail))
	}
	return bat.SelectionVector{}
}

func scanNum[T number](v []T, d domain[T], p *Pred, buf *selBuf) bat.SelectionVector {
	switch p.Kind {
	case PredEq:
		return scanEq(v, p.V.(T), buf)
	case PredNotNil:
		return scanNotNil(v, d.nil, buf)
	}
	if lo, hi, ok := d.closed(p.Range); ok {
		return scanRange(v, lo, hi, buf)
	}
	return bat.SelectionVector{}
}

// span is the selection [start, end), written into buf.
func span(start, end int, buf *selBuf) bat.SelectionVector {
	s := buf.take(end - start)
	for i := range s {
		s[i] = int32(start + i)
	}
	return s
}

// selPool lends the kernels their column-sized scratch selections.
var selPool = sync.Pool{New: func() any { return new(bat.SelectionVector) }}

// selBuf is the scratch selection one kernel call borrows from selPool
// on first use. The call releases it before returning, once the
// survivors are gathered: nothing the call returns may alias it.
type selBuf struct{ p *bat.SelectionVector }

// take returns the borrowed buffer as n positions, borrowing it first.
// A call takes it once: a second take reuses the same storage. The
// result is never nil, which to Filter would mean every row.
func (b *selBuf) take(n int) bat.SelectionVector {
	if b.p == nil {
		b.p = selPool.Get().(*bat.SelectionVector)
	}
	if cap(*b.p) < n || *b.p == nil {
		*b.p = make(bat.SelectionVector, n)
	}
	return (*b.p)[:n]
}

// pairs borrows the buffer as two empty selections of capacity n
// each: a join's probe-side and build-side positions. An append past
// n moves that list off the buffer, so the two never overlap.
func (b *selBuf) pairs(n int) (li, ri bat.SelectionVector) {
	s := b.take(2 * n)
	return s[:0:n], s[n : n : 2*n]
}

// release returns a borrowed buffer to selPool.
func (b *selBuf) release() {
	if b.p != nil {
		selPool.Put(b.p)
		b.p = nil
	}
}

// --- the typed loops -----------------------------------------------------

// scanRange keeps the positions whose value lies in [lo, hi]. The two
// bound tests are separate conditional moves rather than one && branch
// the predictor must guess; NaN fails both.
func scanRange[T number](v []T, lo, hi T, buf *selBuf) bat.SelectionVector {
	out := buf.take(len(v))
	j := 0
	for i, x := range v {
		out[j] = int32(i)
		k := j + 1
		if !(x >= lo) {
			k = j
		}
		if !(x <= hi) {
			k = j
		}
		j = k
	}
	return out[:j]
}

// scanEq keeps the positions whose value equals w.
func scanEq[T comparable](v []T, w T, buf *selBuf) bat.SelectionVector {
	out := buf.take(len(v))
	j := 0
	for i, x := range v {
		out[j] = int32(i)
		if x == w {
			j++
		}
	}
	return out[:j]
}

// scanNotNil keeps the positions whose value is not nilv. x != x is
// what drops a float NaN, which compares unequal to itself and to
// nilv; for every other kind it folds to false.
func scanNotNil[T comparable](v []T, nilv T, buf *selBuf) bat.SelectionVector {
	out := buf.take(len(v))
	j := 0
	for i, x := range v {
		out[j] = int32(i)
		k := j + 1
		if x != x {
			k = j
		}
		if x == nilv {
			k = j
		}
		j = k
	}
	return out[:j]
}

// scanStrEq keeps the rows whose string equals w: it finds w's code in
// the dictionary once and scans the codes for it, and a value the
// dictionary lacks keeps no row. A dictionary longer than the vector
// costs more to search than the rows do, so those rows go to
// scanDict's per-row side.
func scanStrEq(t *bat.Strings, w string, buf *selBuf) bat.SelectionVector {
	vals := t.D.Values()
	if !dictPays(len(t.C), len(vals)) {
		return scanDict(t, func(x string) bool { return x == w }, buf)
	}
	c := slices.Index(vals, w)
	if c < 0 {
		return bat.SelectionVector{}
	}
	return scanEq(t.C, uint32(c), buf)
}

// scanDict keeps the rows whose string keep accepts. keep runs once
// per dictionary value into a bitmap over the codes, and the rows test
// their code's bit; a predicate that keeps one code scans the codes for
// it instead, in about half the time. A dictionary longer than the
// vector (a few rows of a high-cardinality column) costs more to test
// than the rows do, so those rows test their values one by one.
func scanDict(t *bat.Strings, keep func(string) bool, buf *selBuf) bat.SelectionVector {
	vals := t.D.Values()
	if !dictPays(len(t.C), len(vals)) {
		out := buf.take(len(t.C))[:0]
		for i, c := range t.C {
			if keep(vals[c]) {
				out = append(out, int32(i))
			}
		}
		return out
	}
	m := make([]uint64, (len(vals)+63)/64)
	kept, in := 0, uint32(0)
	for c, x := range vals {
		if keep(x) {
			m[c>>6] |= 1 << (c & 63)
			kept, in = kept+1, uint32(c)
		}
	}
	switch kept {
	case 0:
		return bat.SelectionVector{}
	case 1:
		return scanEq(t.C, in, buf)
	}
	sel := buf.take(len(t.C))
	j := 0
	for i, c := range t.C {
		sel[j] = int32(i)
		j += int(m[c>>6] >> (c & 63) & 1)
	}
	return sel[:j]
}

// dictPays reports whether working over a dictionary of d values once
// costs no more than working over n rows' values. Measured over n rows
// with random codes (BenchmarkKernelSelectStrings' shapes), the
// dictionary side of a filter stops winning at d ≈ n for = and LIKE
// (≈ 2n for NOT LIKE) and a sort's ranks at d ≈ 1.2n.
func dictPays(n, d int) bool { return d <= n }

// --- ranges ------------------------------------------------------------------

// Range is a range predicate's bounds over boxed scalars: Lo ≤/< v ≤/<
// Hi, where a nil bound is open. It is the one definition of what an
// exclusive, open or nil endpoint means: the scans normalise it
// (domain.closed, strKeep) and the recycler's subsumption
// reasons with its methods.
type Range struct {
	Lo, Hi       any
	IncLo, IncHi bool
}

// point is the range holding exactly v.
func point(v any) Range { return Range{Lo: v, Hi: v, IncLo: true, IncHi: true} }

type number interface {
	int64 | bat.Date | bat.Oid | float64
}

// domain is a numeric kind's non-nil values [min, max] and its nil:
// just outside one end for the int-like kinds, NaN — outside every
// order — for floats.
type domain[T number] struct{ min, max, nil T }

var (
	intDom  = domain[int64]{min: bat.NilInt + 1, max: math.MaxInt64, nil: bat.NilInt}
	dateDom = domain[bat.Date]{min: bat.NilDate + 1, max: math.MaxInt32, nil: bat.NilDate}
	oidDom  = domain[bat.Oid]{min: 0, max: bat.NilOid - 1, nil: bat.NilOid}
	fltDom  = domain[float64]{min: math.Inf(-1), max: math.Inf(1), nil: math.NaN()}
)

// closed normalises r to the closed interval [lo, hi] of non-nil
// values it admits; ok is false when that is empty (contradictory
// bounds, or an exclusive bound at the domain's edge).
func (d domain[T]) closed(r Range) (lo, hi T, ok bool) {
	lo, hi = d.min, d.max
	if r.Lo != nil {
		v := r.Lo.(T)
		if !r.IncLo {
			if v >= d.max {
				return lo, hi, false
			}
			v = adjacent(v, 1)
		}
		if v > lo { // a NaN bound leaves its side open
			lo = v
		}
	}
	if r.Hi != nil {
		v := r.Hi.(T)
		if !r.IncHi {
			if v <= d.min {
				return lo, hi, false
			}
			v = adjacent(v, -1)
		}
		if v < hi {
			hi = v
		}
	}
	return lo, hi, lo <= hi
}

// interval is the closed interval a range or equality predicate
// admits. An equality's value is taken as given: a nil sentinel matches
// itself.
func (d domain[T]) interval(p *Pred) (T, T, bool) {
	if p.Kind == PredEq {
		w := p.V.(T)
		return w, w, true
	}
	return d.closed(p.Range)
}

// adjacent is the next value of x's kind above (dir 1) or below (dir
// -1) it: x±1, or the adjacent float.
func adjacent[T number](x T, dir int) T {
	if f, ok := any(x).(float64); ok {
		return any(math.Nextafter(f, float64(dir)*math.Inf(1))).(T)
	}
	return x + T(dir)
}

// strKeep is the string range test; nil strings never qualify.
func (r Range) strKeep() func(string) bool {
	var lo, hi string
	if r.Lo != nil {
		lo = r.Lo.(string)
	}
	if r.Hi != nil {
		hi = r.Hi.(string)
	}
	return func(x string) bool {
		return x != bat.NilStr &&
			(r.Lo == nil || x > lo || r.IncLo && x == lo) &&
			(r.Hi == nil || x < hi || r.IncHi && x == hi)
	}
}

// The endpoint algebra of combined and singleton subsumption (§5). It
// compares endpoints as written, by Cmp: an exclusive and an inclusive
// bound that admit the same integers are still different endpoints.

// Contains reports whether every value t admits, r admits.
func (r Range) Contains(t Range) bool {
	return outer(r.Lo, r.IncLo, t.Lo, t.IncLo, -1) && outer(r.Hi, r.IncHi, t.Hi, t.IncHi, 1)
}

// outer reports whether endpoint a reaches at least as far as b below
// (dir -1) or above (dir 1) — on a tie, a must include the point if b
// does. An open (nil) endpoint reaches everything.
func outer(a any, aInc bool, b any, bInc bool, dir int) bool {
	if a == nil || b == nil {
		return a == nil
	}
	c := Cmp(a, b) * dir
	return c > 0 || c == 0 && (aInc || !bInc)
}

// Overlaps reports whether r and o intersect, reading both as closed
// intervals: conservative, which can only add a harmless extra piece to
// a combined cover.
func (r Range) Overlaps(o Range) bool {
	return !gap(r.Lo, true, o.Hi, true) && !gap(o.Lo, true, r.Hi, true)
}

// Mergeable reports whether r ∪ o is one solid interval: they
// intersect, or touch at a point at least one of them includes. Two
// ranges both EXCLUDING the shared point (a < 44 and a > 44) leave a
// hole there, and a cover built over the hole drops the rows equal to
// it.
func (r Range) Mergeable(o Range) bool {
	return !gap(r.Lo, r.IncLo, o.Hi, o.IncHi) && !gap(o.Lo, o.IncLo, r.Hi, r.IncHi)
}

// gap reports that the lower endpoint lies above the upper one, or on
// it with neither including the point.
func gap(lo any, incLo bool, hi any, incHi bool) bool {
	if lo == nil || hi == nil {
		return false
	}
	c := Cmp(lo, hi)
	return c > 0 || c == 0 && !incLo && !incHi
}

// Union returns the smallest range holding r and o — their union when
// they are Mergeable. On a tied endpoint the union keeps the point if
// either range does.
func (r Range) Union(o Range) Range {
	var u Range
	u.Lo, u.IncLo = extend(r.Lo, r.IncLo, o.Lo, o.IncLo, -1)
	u.Hi, u.IncHi = extend(r.Hi, r.IncHi, o.Hi, o.IncHi, 1)
	return u
}

// extend picks the outer of two endpoints: the lower when dir < 0, the
// upper when dir > 0; open wins.
func extend(a any, aInc bool, b any, bInc bool, dir int) (any, bool) {
	if a == nil || b == nil {
		return nil, false
	}
	switch c := Cmp(a, b) * dir; {
	case c == 0:
		return a, aInc || bInc
	case c > 0:
		return a, aInc
	}
	return b, bInc
}

// --- LIKE ----------------------------------------------------------------

// likeMatch reports whether s matches the SQL LIKE pattern p, without
// regexp: an iterative two-pointer match backtracking on '%'.
func likeMatch(p, s string) bool {
	pi, si := 0, 0
	star, mark := -1, 0
	for si < len(s) {
		switch {
		case pi < len(p) && (p[pi] == '_' || p[pi] == s[si]):
			pi++
			si++
		case pi < len(p) && p[pi] == '%':
			star = pi
			mark = si
			pi++
		case star >= 0:
			pi = star + 1
			mark++
			si = mark
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}

// LikeLiteral extracts the longest literal run of a LIKE pattern (the
// pattern with wildcards stripped). Used by the recycler's like
// subsumption test: if pat1 = %lit1% and lit1 is a substring of the
// literal of pat2, every match of pat2 matches pat1. pureInfix reports
// that the pattern is exactly %lit%.
func LikeLiteral(pattern string) (lit string, pureInfix bool) {
	for _, run := range strings.FieldsFunc(pattern, func(r rune) bool { return r == '%' || r == '_' }) {
		if len(run) > len(lit) {
			lit = run
		}
	}
	n := len(pattern)
	pureInfix = n >= 2 && pattern[0] == '%' && pattern[n-1] == '%' && !strings.ContainsAny(pattern[1:n-1], "%_")
	return lit, pureInfix
}
