package algebra

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/bat"
)

// Join kernels over the typed chained hash table (bat.Table) and, for
// oid keys, an exact bitmap of the build side's head (bat.OidBitmap):
// a probe key whose bit is clear costs one bit test and no hash. A
// join index's postings (bat.Postings) let an oid join skip the probe
// loop altogether when few L rows match. Probe
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
//
// An oid join pays for its small side: a dense R head is direct
// indexing; postings on L's tail (a join index bound through the
// catalog) read the L rows R's oids reach when those are few against
// |L| and R repeats none of them; a few ascending keys against a large
// sorted unique R head gallop through it; the rest test R's oid bitmap,
// then its table.
func Join(l, r *bat.BAT) *bat.BAT {
	var buf selBuf
	defer buf.release()
	if l.Tail.Kind() != bat.KOid {
		return joinByValue(l, r, &buf)
	}
	keys := bat.MaterialiseOids(l.Tail)
	if dh, ok := r.Head.(*bat.DenseOids); ok {
		li, ri := buf.pairs(len(keys))
		return joinDenseHead(l, r, dh, keys, li, ri)
	}
	rh := r.Head.(*bat.Oids).V
	if lt, ok := l.Tail.(*bat.Oids); ok {
		if p := lt.Postings(); p != nil {
			if li, ri, ok := joinPostings(p, len(keys), rh, &buf); ok {
				return gatherJoin(l, r, li, ri)
			}
		}
	}
	li, ri := buf.pairs(len(keys))
	if r.HeadSorted && r.KeyUnique && searchPays(len(keys), len(rh)) && slices.IsSorted(keys) {
		li, ri = searchJoin(keys, rh, li, ri)
		return gatherJoin(l, r, li, ri)
	}
	t := bat.BuildOids(rh)
	if m := bat.NewOidBitmap(r.Head, r.HeadSorted, len(keys)+len(rh)); m != nil {
		li, ri = probeMembers(keys, m, t, li, ri)
		m.Release()
	} else {
		li, ri = probeJoin(keys, t, li, ri)
	}
	return gatherJoin(l, r, li, ri)
}

// postingsShare bounds the postings path: it runs when the match count
// is at most 1/postingsShare of |L|, where reading the matched rows off
// the posting lists beats testing every L row.
const postingsShare = 8

// joinPostings pairs the n rows of L whose tail p inverts with R's head
// rh. Summing R's posting-list lengths, O(|R|), gives the exact match
// count m; past n/postingsShare it declines (ok false). Otherwise the
// matched L positions are marked in a bitmap over L, and each pair is
// placed at its position's rank among the marks, so the pairs come out
// in L order with no comparison sort. A mark set twice means R repeats
// an oid; it declines then too, and the caller's table walk yields the
// pairs in (L, R) order.
func joinPostings(p *bat.Postings, n int, rh []bat.Oid, buf *selBuf) (li, ri bat.SelectionVector, ok bool) {
	m := 0
	for _, v := range rh {
		if m += len(p.Rows(v)); m > n/postingsShare {
			return nil, nil, false
		}
	}
	if m == 0 {
		return bat.SelectionVector{}, bat.SelectionVector{}, true
	}
	words := (n + 31) / 32
	s := buf.take(2*m + 2*words)
	li, ri = s[:m:m], s[m:2*m:2*m]
	marks, rank := s[2*m:2*m+words], s[2*m+words:]
	clear(marks)
	for _, v := range rh {
		for _, i := range p.Rows(v) {
			w, b := i>>5, uint32(1)<<(i&31)
			if uint32(marks[w])&b != 0 {
				return nil, nil, false
			}
			marks[w] |= int32(b)
		}
	}
	c := int32(0)
	for w, x := range marks {
		rank[w] = c
		c += int32(bits.OnesCount32(uint32(x)))
	}
	for j, v := range rh {
		for _, i := range p.Rows(v) {
			w := i >> 5
			k := rank[w] + int32(bits.OnesCount32(uint32(marks[w])&(1<<(i&31)-1)))
			li[k], ri[k] = i, int32(j)
		}
	}
	return li, ri, true
}

// searchPays reports whether galloping n ascending keys through a
// sorted unique R head of rn oids, log2(rn/n)+1 steps a key, costs less
// than building R's table and bitmap, rn steps, a search step weighed
// at a quarter of a build step.
func searchPays(n, rn int) bool {
	return n*(bits.Len(uint(rn/max(n, 1)))+1) < 4*rn
}

// searchJoin looks ascending keys (a join index over a clustered
// child) up in R's ascending unique head rh, each gallop going on from
// the last key's position, and appends the match pairs in L order.
func searchJoin(keys, rh []bat.Oid, li, ri bat.SelectionVector) (bat.SelectionVector, bat.SelectionVector) {
	p := 0
	for i, k := range keys {
		if p = gallop(rh, p, k); p == len(rh) {
			break
		}
		if rh[p] == k {
			li = append(li, int32(i))
			ri = append(ri, int32(p))
		}
	}
	return li, ri
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
		rh := r.Head.(*bat.Strings)
		li, ri = probeJoin(codesOf(lt, rh), bat.BuildCodes(rh.C), li, ri)
	case *bat.Dates:
		li, ri = probeJoin(lt.V, bat.BuildDates(r.Head.(*bat.Dates).V), li, ri)
	case *bat.Floats:
		li, ri = probeJoin(lt.V, bat.BuildFloats(r.Head.(*bat.Floats).V), li, ri)
	default:
		panic("algebra: joinByValue unsupported tail type")
	}
	return gatherJoin(l, r, li, ri)
}

// codesOf returns l's codes as codes of r's dictionary, for probing r.
// Two dictionaries meet through one translation. When they are no
// longer than the rows (dictPays), l's whole dictionary is translated,
// O(distinct values of both); otherwise only the values the rows hold
// are, O(|L|+|R|). A value r's rows lack becomes a code no row of r
// holds.
func codesOf(l, r *bat.Strings) []uint32 {
	if l.D == r.D {
		return l.C
	}
	lv, rv := l.D.Values(), r.D.Values()
	out := make([]uint32, len(l.C))
	if dictPays(len(l.C)+len(r.C), len(lv)+len(rv)) {
		index := make(map[string]uint32, len(rv))
		for c, s := range rv {
			index[s] = uint32(c)
		}
		trans := make([]uint32, len(lv))
		for c, s := range lv {
			trans[c] = codeIn(index, s)
		}
		for i, c := range l.C {
			out[i] = trans[c]
		}
		return out
	}
	index := make(map[string]uint32, len(r.C))
	for _, c := range r.C {
		index[rv[c]] = c
	}
	for i, c := range l.C {
		out[i] = codeIn(index, lv[c])
	}
	return out
}

// codeIn returns s's code in index, or a code no vector holds.
func codeIn(index map[string]uint32, s string) uint32 {
	if c, ok := index[s]; ok {
		return c
	}
	return math.MaxUint32
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
//   - sorted intersection: a sorted unique L head and a sorted R head
//     gallop in O(small·log(large/small)) (semijoinSorted) when that
//     beats one bitmap pass over both (gallopPays), and otherwise test
//     R's bitmap; a sorted unique L and a smaller unsorted R
//     binary-search L instead;
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
		if !gallopPays(n, r.Len()) {
			if m := bat.NewOidBitmap(r.Head, true, n+r.Len()); m != nil {
				sel = probeBitmap(bat.MaterialiseOids(l.Head), m, true, buf.take(n))
				m.Release()
				break
			}
		}
		sel = semijoinSorted(bat.MaterialiseOids(l.Head), bat.MaterialiseOids(r.Head), buf.take(min(n, r.Len())))
	case sortedL && r.Len() <= n:
		sel = semijoinSearch(bat.MaterialiseOids(l.Head), bat.MaterialiseOids(r.Head), buf.take(r.Len()))
	default:
		sel = probeHeads(bat.MaterialiseOids(l.Head), r, true, buf.take(n))
	}
	return keepRows(l, sel)
}

// keepRows returns the rows of l at sel with l's head flags, or l
// itself when sel keeps every row. An l of the uselect shape (see
// PredEq) keeps it: the head is gathered once and is the tail too.
func keepRows(l *bat.BAT, sel bat.SelectionVector) *bat.BAT {
	if len(sel) == l.Len() {
		return l
	}
	var out *bat.BAT
	if ownTail(l) {
		out = uselectRows(l.Head, sel)
	} else {
		out = bat.GatherSel(l, sel)
	}
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
	if m := bat.NewOidBitmap(r.Head, r.HeadSorted, len(lh)+r.Len()); m != nil {
		sel = probeBitmap(lh, m, want, sel)
		m.Release()
		return sel
	}
	j := 0
	t := bat.BuildOids(bat.MaterialiseOids(r.Head))
	for i, v := range lh {
		sel[j] = int32(i)
		if t.Has(v) == want {
			j++
		}
	}
	return sel[:j]
}

// probeBitmap writes into sel (|lh| long) the positions of lh whose
// oid m holds (want true) or lacks (want false).
func probeBitmap(lh []bat.Oid, m *bat.OidBitmap, want bool, sel bat.SelectionVector) bat.SelectionVector {
	j := 0
	for i, v := range lh {
		sel[j] = int32(i)
		if m.Has(v) == want {
			j++
		}
	}
	return sel[:j]
}

// gallopPays reports whether galloping the smaller of two sorted heads
// through the larger, small·log2(large/small) steps, beats one pass
// over both with R's bitmap, |L|+|R| cheap tests. A galloping step
// mispredicts a branch, so it is weighed at four bitmap tests.
func gallopPays(n, rn int) bool {
	small, large := min(n, rn), max(n, rn)
	return 4*small*bits.Len(uint(large/small)) <= n+rn
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
		sel = kuniqueSel(h.C, bat.HashCode)
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
