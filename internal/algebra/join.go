package algebra

import (
	"sort"

	"repro/internal/bat"
)

// Join kernels over the typed chained hash table (bat.Table): build
// sides preallocate from cardinality, probe loops are monomorphized
// per key kind, and match lists are exact-capacity (count-then-fill)
// instead of append-grown. Chain walks enumerate positions in
// ascending order, so results are bit-identical to the historical
// map-based kernels.

// Join implements the binary equi-join algebra.join(L, R): it matches
// L's tail values against R's head oids and produces (L.head, R.tail)
// pairs. This is MonetDB's canonical join shape: the left operand ends
// in a column of oids referencing the right operand's head. The result
// preserves L's row order.
func Join(l, r *bat.BAT) *bat.BAT {
	if l.Tail.Kind() != bat.KOid {
		return joinByValue(l, r)
	}
	// Fast path: R has a dense head, so matching is direct indexing.
	if dh, ok := r.Head.(*bat.DenseOids); ok {
		return joinDenseHead(l, r, dh)
	}
	t := bat.HeadTable(r)
	li, ri := probeJoin(bat.MaterialiseOids(l.Tail), t)
	return gatherJoin(l, r, li, ri)
}

func joinDenseHead(l, r *bat.BAT, dh *bat.DenseOids) *bat.BAT {
	// A dense head is unique, so each left row matches at most once:
	// preallocate both position lists at l.Len() and truncate.
	n := l.Len()
	li := make(bat.SelectionVector, n)
	ri := make(bat.SelectionVector, n)
	j := 0
	lt := bat.MaterialiseOids(l.Tail)
	lim := dh.Start + bat.Oid(dh.N)
	for i, v := range lt {
		li[j] = int32(i)
		ri[j] = int32(v - dh.Start)
		if v >= dh.Start && v < lim {
			j++
		}
	}
	return gatherJoin(l, r, li[:j], ri[:j])
}

// probeJoin probes every key against the table and returns the exact
// match pair lists: li[k] is the probe-side position, ri[k] the
// build-side position. Two passes: count, then fill preallocated.
func probeJoin[K comparable](keys []K, t *bat.Table[K]) (li, ri bat.SelectionVector) {
	total := 0
	for _, k := range keys {
		total += t.Count(k)
	}
	li = make(bat.SelectionVector, total)
	ri = make(bat.SelectionVector, total)
	j := 0
	for i, k := range keys {
		for p := t.First(k); p >= 0; p = t.Next(p, k) {
			li[j] = int32(i)
			ri[j] = p
			j++
		}
	}
	return li, ri
}

// joinByValue joins on value equality between L.tail and R.head when
// the join column is not oid-typed (e.g. joining through a value key).
// R.head must then be a materialised vector of the same kind. The type
// switch is hoisted out of the probe loop: each arm builds a typed
// table over R's head and runs a monomorphized probe.
func joinByValue(l, r *bat.BAT) *bat.BAT {
	var li, ri bat.SelectionVector
	switch lt := l.Tail.(type) {
	case *bat.Ints:
		li, ri = probeJoin(lt.V, bat.BuildInts(r.Head.(*bat.Ints).V))
	case *bat.Strings:
		li, ri = probeJoin(lt.V, bat.BuildStrings(r.Head.(*bat.Strings).V))
	case *bat.Dates:
		li, ri = probeJoin(lt.V, bat.BuildDates(r.Head.(*bat.Dates).V))
	case *bat.Floats:
		li, ri = probeJoin(lt.V, bat.BuildFloats(r.Head.(*bat.Floats).V))
	default:
		panic("algebra: joinByValue unsupported tail type")
	}
	return gatherJoin(l, r, li, ri)
}

func gatherJoin(l, r *bat.BAT, li, ri bat.SelectionVector) *bat.BAT {
	heads := bat.GatherOidsSel(l.Head, li)
	out := bat.New(bat.NewOids(heads), bat.GatherVectorSel(r.Tail, ri))
	out.HeadSorted = l.HeadSorted
	return out
}

// Semijoin implements algebra.semijoin(L, R): the rows of L whose head
// oid appears among R's head oids. It preserves L's order.
//
// When L's head is dense or sorted and R is the smaller side, the
// positions are computed from R in O(|R| log |R|) instead of scanning
// L — the dominant case in projection semijoins, where L is a full
// base column and R a handful of qualifying rows.
func Semijoin(l, r *bat.BAT) *bat.BAT {
	n := l.Len()
	var sel bat.SelectionVector
	switch {
	case n == 0 || r.Len() == 0:
		sel = nil
	case isDenseHead(l) && r.Len() <= n:
		sel = semijoinDense(l.Head.(*bat.DenseOids), r)
	case l.HeadSorted && l.KeyUnique && r.Len() <= n:
		sel = semijoinSortedUnique(l, r)
	default:
		t := bat.HeadTable(r)
		sel = make(bat.SelectionVector, n)
		j := 0
		lh := bat.MaterialiseOids(l.Head)
		for i, v := range lh {
			sel[j] = int32(i)
			if t.Has(v) {
				j++
			}
		}
		sel = sel[:j]
	}
	if len(sel) == n {
		return l
	}
	out := bat.GatherSel(l, sel)
	out.HeadSorted = l.HeadSorted
	out.KeyUnique = l.KeyUnique
	return out
}

func isDenseHead(b *bat.BAT) bool {
	_, ok := b.Head.(*bat.DenseOids)
	return ok
}

// semijoinDense maps R's head oids straight to positions in a dense L
// head (position = oid - start), then sorts and deduplicates. When R's
// head is already sorted and unique the positions come out ascending
// and distinct, so the O(|R| log |R|) sort is skipped entirely.
func semijoinDense(dh *bat.DenseOids, r *bat.BAT) bat.SelectionVector {
	lim := dh.Start + bat.Oid(dh.N)
	sel := make(bat.SelectionVector, r.Len())
	j := 0
	switch rh := r.Head.(type) {
	case *bat.Oids:
		for _, v := range rh.V {
			if v >= dh.Start && v < lim {
				sel[j] = int32(v - dh.Start)
				j++
			}
		}
	case *bat.DenseOids:
		for i := 0; i < rh.N; i++ {
			v := rh.At(i)
			if v >= dh.Start && v < lim {
				sel[j] = int32(v - dh.Start)
				j++
			}
		}
	default:
		panic("bat: semijoin over non-oid head")
	}
	sel = sel[:j]
	if r.HeadSorted && r.KeyUnique {
		return sel
	}
	return sortDedupSel(sel)
}

// semijoinSortedUnique binary-searches each R head oid in L's sorted
// unique head, then sorts and deduplicates the hit positions.
func semijoinSortedUnique(l, r *bat.BAT) bat.SelectionVector {
	lh := bat.MaterialiseOids(l.Head)
	rh := bat.MaterialiseOids(r.Head)
	sel := make(bat.SelectionVector, 0, len(rh))
	for _, v := range rh {
		p := sort.Search(len(lh), func(i int) bool { return lh[i] >= v })
		if p < len(lh) && lh[p] == v {
			sel = append(sel, int32(p))
		}
	}
	if r.HeadSorted && r.KeyUnique {
		return sel
	}
	return sortDedupSel(sel)
}

// sortDedupSel sorts a selection vector ascending and removes
// duplicates in place.
func sortDedupSel(sel bat.SelectionVector) bat.SelectionVector {
	if len(sel) < 2 {
		return sel
	}
	sort.Slice(sel, func(i, j int) bool { return sel[i] < sel[j] })
	j := 1
	for i := 1; i < len(sel); i++ {
		if sel[i] != sel[i-1] {
			sel[j] = sel[i]
			j++
		}
	}
	return sel[:j]
}

// AntiSemijoin returns the rows of L whose head oid does NOT appear
// among R's head oids. Used by delete propagation.
func AntiSemijoin(l, r *bat.BAT) *bat.BAT {
	n := l.Len()
	t := bat.HeadTable(r)
	sel := make(bat.SelectionVector, n)
	j := 0
	lh := bat.MaterialiseOids(l.Head)
	for i, v := range lh {
		sel[j] = int32(i)
		if !t.Has(v) {
			j++
		}
	}
	sel = sel[:j]
	if len(sel) == n {
		return l
	}
	out := bat.GatherSel(l, sel)
	out.HeadSorted = l.HeadSorted
	out.KeyUnique = l.KeyUnique
	return out
}

// KUnique implements bat.kunique: it retains the first occurrence of
// every distinct head value, preserving order. Heads of any base type
// are supported (queries often reverse a value column into the head
// before deduplicating, as in the paper's Fig. 1).
func KUnique(b *bat.BAT) *bat.BAT {
	n := b.Len()
	var sel bat.SelectionVector
	switch h := b.Head.(type) {
	case *bat.DenseOids:
		// Dense heads are unique by construction.
		out := *b
		out.KeyUnique = true
		return &out
	case *bat.Oids:
		sel = kuniqueSel(h.V, bat.HashOid)
	case *bat.Ints:
		sel = kuniqueSel(h.V, bat.HashInt)
	case *bat.Floats:
		sel = kuniqueSel(h.V, bat.HashFloat)
	case *bat.Strings:
		sel = kuniqueSel(h.V, bat.HashStr)
	case *bat.Dates:
		sel = kuniqueSel(h.V, bat.HashDate)
	case *bat.Bools:
		sel = kuniqueSel(h.V, bat.HashBool)
	default:
		panic("algebra: kunique over unsupported head type")
	}
	if len(sel) == n {
		out := *b
		out.KeyUnique = true
		return &out
	}
	out := bat.New(bat.GatherVectorSel(b.Head, sel), bat.GatherVectorSel(b.Tail, sel))
	out.KeyUnique = true
	out.HeadSorted = b.HeadSorted
	return out
}

// kuniqueSel keeps position i iff it is the first occurrence of its
// key: build the chained table once, then a position is first exactly
// when the table's chain for its key starts at it. A probe that finds
// nothing (possible only for keys that are != themselves, i.e. float
// NaN) keeps the row — interface-keyed maps behaved the same way, so
// every nil float was retained as distinct.
func kuniqueSel[K comparable](keys []K, hash func(K) uint64) bat.SelectionVector {
	t := bat.NewTable(keys, hash)
	sel := make(bat.SelectionVector, len(keys))
	j := 0
	for i, k := range keys {
		sel[j] = int32(i)
		if f := t.First(k); f == int32(i) || f < 0 {
			j++
		}
	}
	return sel[:j]
}
