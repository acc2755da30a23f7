package algebra

import (
	"slices"

	"repro/internal/bat"
)

// Join kernels over the typed chained hash table (bat.Table) and, for
// oid keys, an exact bitmap of the build side's head (bat.OidBitmap):
// a probe key whose bit is clear costs one bit test and no hash. Probe
// loops are monomorphized per key kind and append their match
// positions into one pooled scratch buffer (selBuf) that the gathers
// copy out, so a join allocates its result and its build side only.
// Chain walks enumerate positions in ascending order, so results are
// bit-identical to the historical map-based kernels.

// Join implements the binary equi-join algebra.join(L, R): it matches
// L's tail values against R's head oids and produces (L.head, R.tail)
// pairs. This is MonetDB's canonical join shape: the left operand ends
// in a column of oids referencing the right operand's head. The result
// preserves L's row order.
func Join(l, r *bat.BAT) *bat.BAT {
	var buf selBuf
	defer buf.release()
	if l.Tail.Kind() != bat.KOid {
		return joinByValue(l, r, &buf)
	}
	keys := bat.MaterialiseOids(l.Tail)
	li, ri := buf.pairs(len(keys))
	// Fast path: R has a dense head, so matching is direct indexing.
	if dh, ok := r.Head.(*bat.DenseOids); ok {
		return joinDenseHead(l, r, dh, keys, li, ri)
	}
	t := bat.BuildOids(bat.MaterialiseOids(r.Head))
	if m := bat.NewOidBitmap(r.Head, len(keys)+r.Len()); m != nil {
		li, ri = probeMembers(keys, m, t, li, ri)
	} else {
		li, ri = probeJoin(keys, t, li, ri)
	}
	return gatherJoin(l, r, li, ri)
}

// joinDenseHead matches keys by position in R's dense head. A dense
// head is unique, so each left row matches at most once: li and ri
// hold |L| positions.
func joinDenseHead(l, r *bat.BAT, dh *bat.DenseOids, keys []bat.Oid, li, ri bat.SelectionVector) *bat.BAT {
	li, ri = li[:len(keys)], ri[:len(keys)]
	j := 0
	lim := dh.Start + bat.Oid(dh.N)
	for i, v := range keys {
		li[j] = int32(i)
		ri[j] = int32(v - dh.Start)
		if v >= dh.Start && v < lim {
			j++
		}
	}
	return gatherJoin(l, r, li[:j], ri[:j])
}

// probeJoin probes every key against the table once and appends the
// match pairs: li[k] is the probe-side position, ri[k] the build-side
// position.
func probeJoin[K comparable](keys []K, t *bat.Table[K], li, ri bat.SelectionVector) (bat.SelectionVector, bat.SelectionVector) {
	for i, k := range keys {
		for p := t.First(k); p >= 0; p = t.Next(p, k) {
			li = append(li, int32(i))
			ri = append(ri, p)
		}
	}
	return li, ri
}

// probeMembers is probeJoin behind m, the bitmap of the table's keys:
// only a key whose bit is set walks the table.
func probeMembers(keys []bat.Oid, m *bat.OidBitmap, t *bat.Table[bat.Oid], li, ri bat.SelectionVector) (bat.SelectionVector, bat.SelectionVector) {
	for i, k := range keys {
		if !m.Has(k) {
			continue
		}
		for p := t.First(k); p >= 0; p = t.Next(p, k) {
			li = append(li, int32(i))
			ri = append(ri, p)
		}
	}
	return li, ri
}

// joinByValue joins on value equality between L.tail and R.head when
// the join column is not oid-typed (e.g. joining through a value key).
// R.head must then be a materialised vector of the same kind. The type
// switch is hoisted out of the probe loop: each arm builds a typed
// table over R's head and runs a monomorphized probe.
func joinByValue(l, r *bat.BAT, buf *selBuf) *bat.BAT {
	li, ri := buf.pairs(l.Len())
	switch lt := l.Tail.(type) {
	case *bat.Ints:
		li, ri = probeJoin(lt.V, bat.BuildInts(r.Head.(*bat.Ints).V), li, ri)
	case *bat.Strings:
		li, ri = probeJoin(lt.V, bat.BuildStrings(r.Head.(*bat.Strings).V), li, ri)
	case *bat.Dates:
		li, ri = probeJoin(lt.V, bat.BuildDates(r.Head.(*bat.Dates).V), li, ri)
	case *bat.Floats:
		li, ri = probeJoin(lt.V, bat.BuildFloats(r.Head.(*bat.Floats).V), li, ri)
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
// Three strategies, each computing L's surviving positions into one
// pooled scratch selection (see selBuf) that the gather copies out:
//   - dense positions: a dense L head with R no larger maps R's oids
//     straight to positions — the projection semijoin of a base column
//     against a handful of qualifying rows;
//   - galloping intersection: a sorted unique L head and a sorted R
//     head merge in O(small·log(large/small)) (semijoinSorted); a sorted
//     unique L and a smaller unsorted R binary-search L instead;
//   - membership: every L oid tests R's oid bitmap, or a table over
//     R's head when the bitmap would pass its bound (probeHeads).
func Semijoin(l, r *bat.BAT) *bat.BAT {
	n := l.Len()
	var buf selBuf
	defer buf.release()
	var sel bat.SelectionVector
	sortedL := l.HeadSorted && l.KeyUnique
	switch {
	case n == 0 || r.Len() == 0:
	case isDenseHead(l) && r.Len() <= n:
		sel = semijoinDense(l.Head.(*bat.DenseOids), r, buf.take(r.Len()))
	case sortedL && r.HeadSorted:
		sel = semijoinSorted(bat.MaterialiseOids(l.Head), bat.MaterialiseOids(r.Head), buf.take(min(n, r.Len())))
	case sortedL && r.Len() <= n:
		sel = semijoinSearch(bat.MaterialiseOids(l.Head), bat.MaterialiseOids(r.Head), buf.take(r.Len()))
	default:
		sel = probeHeads(bat.MaterialiseOids(l.Head), r, true, buf.take(n))
	}
	return keepRows(l, sel)
}

// keepRows returns the rows of l at sel with l's head flags, or l
// itself when sel keeps every row.
func keepRows(l *bat.BAT, sel bat.SelectionVector) *bat.BAT {
	if len(sel) == l.Len() {
		return l
	}
	out := bat.GatherSel(l, sel)
	out.HeadSorted = l.HeadSorted
	out.KeyUnique = l.KeyUnique
	return out
}

// probeHeads writes into sel (|lh| long) the positions of lh whose
// oid R's head holds (want true) or lacks (want false). Membership is
// R's oid bitmap when that takes at most |L|+|R| words, so it never
// costs more to build than the probes it answers; past that bound, a
// table over R's head.
func probeHeads(lh []bat.Oid, r *bat.BAT, want bool, sel bat.SelectionVector) bat.SelectionVector {
	j := 0
	if m := bat.NewOidBitmap(r.Head, len(lh)+r.Len()); m != nil {
		for i, v := range lh {
			sel[j] = int32(i)
			if m.Has(v) == want {
				j++
			}
		}
		return sel[:j]
	}
	t := bat.BuildOids(bat.MaterialiseOids(r.Head))
	for i, v := range lh {
		sel[j] = int32(i)
		if t.Has(v) == want {
			j++
		}
	}
	return sel[:j]
}

func isDenseHead(b *bat.BAT) bool {
	_, ok := b.Head.(*bat.DenseOids)
	return ok
}

// semijoinDense maps R's head oids straight to positions in a dense L
// head (position = oid - start) in sel, which holds |R| positions.
// A sorted R yields ascending positions, so only its duplicates need
// collapsing; any other R is sorted and deduplicated.
func semijoinDense(dh *bat.DenseOids, r *bat.BAT, sel bat.SelectionVector) bat.SelectionVector {
	lim := dh.Start + bat.Oid(dh.N)
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
	if r.HeadSorted {
		return slices.Compact(sel[:j])
	}
	return sortDedupSel(sel[:j])
}

// semijoinSorted intersects L's ascending unique head lh with R's
// non-decreasing head rh into sel, which holds min(|L|, |R|) positions.
// It walks the smaller side and gallops through the other from the
// last match, so R ⊆ L costs one pass over R and a sparse overlap a
// few probes per match. An R duplicate finds its L position already
// passed, so it collapses without a dedup pass.
func semijoinSorted(lh, rh []bat.Oid, sel bat.SelectionVector) bat.SelectionVector {
	j := 0
	if len(rh) <= len(lh) {
		i := 0
		for _, v := range rh {
			if i = gallop(lh, i, v); i == len(lh) {
				break
			}
			if lh[i] == v {
				sel[j] = int32(i)
				j++
				i++
			}
		}
		return sel[:j]
	}
	k := 0
	for i, v := range lh {
		if k = gallop(rh, k, v); k == len(rh) {
			break
		}
		if rh[k] == v {
			sel[j] = int32(i)
			j++
		}
	}
	return sel[:j]
}

// gallop returns the first position at or after lo of ascending v
// whose oid is at least x: steps of 1, 2, 4, … from lo until one
// reaches x, then a binary search inside the last step.
func gallop(v []bat.Oid, lo int, x bat.Oid) int {
	hi, step := lo, 1
	for hi < len(v) && v[hi] < x {
		lo = hi + 1
		hi += step
		step <<= 1
	}
	for hi = min(hi, len(v)); lo < hi; {
		if m := int(uint(lo+hi) >> 1); v[m] < x {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// semijoinSearch binary-searches each oid of an unsorted rh in L's
// ascending unique head lh, writing the hit positions into sel (|R|
// long), then sorts and deduplicates them.
func semijoinSearch(lh, rh []bat.Oid, sel bat.SelectionVector) bat.SelectionVector {
	j := 0
	for _, v := range rh {
		if p, ok := slices.BinarySearch(lh, v); ok {
			sel[j] = int32(p)
			j++
		}
	}
	return sortDedupSel(sel[:j])
}

// sortDedupSel sorts a selection vector ascending and removes
// duplicates in place.
func sortDedupSel(sel bat.SelectionVector) bat.SelectionVector {
	slices.Sort(sel)
	return slices.Compact(sel)
}

// AntiSemijoin returns the rows of L whose head oid does NOT appear
// among R's head oids. Used by delete propagation.
func AntiSemijoin(l, r *bat.BAT) *bat.BAT {
	var buf selBuf
	defer buf.release()
	return keepRows(l, probeHeads(bat.MaterialiseOids(l.Head), r, false, buf.take(l.Len())))
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
