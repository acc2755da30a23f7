package algebra

import (
	"cmp"
	"slices"

	"repro/internal/bat"
)

// MergeDedupByHead concatenates the given BATs and removes duplicate
// head oids, keeping the first occurrence after a stable sort by head.
// The recycler's combined subsumption (paper §5.2, Algorithm 2) uses it
// to union piecewise selections over overlapping cached intermediates:
// overlapping pieces contribute the same (head, tail) pairs, so
// deduplication by head restores set semantics. algebra.union is its
// two-part case.
//
// Every part is made a head-sorted run first (parts are usually clipped
// selects over oid-ordered intermediates, which already are one), then
// the runs are merged two at a time over their typed slices. Parts of
// the uselect shape, whose tail is their head, merge their heads only
// and yield that shape.
func MergeDedupByHead(parts []*bat.BAT) *bat.BAT {
	switch len(parts) {
	case 0:
		panic("algebra: merge of zero parts")
	case 1:
		return parts[0]
	}
	if selfTailed(parts) {
		hs := make([][]bat.Oid, len(parts))
		none := make([][]struct{}, len(parts)) // zero-size tails: no storage
		for pi, p := range parts {
			if hs[pi] = bat.MaterialiseOids(p.Head); !p.HeadSorted {
				hs[pi] = slices.Clone(hs[pi])
				slices.Sort(hs[pi])
			}
			none[pi] = make([]struct{}, len(hs[pi]))
		}
		heads, _ := mergeRuns(hs, none)
		hv := bat.NewOids(heads)
		return mergedBAT(hv, hv.Slice(0, len(heads)))
	}
	hs := make([][]bat.Oid, len(parts))
	tails := make([]bat.Vector, len(parts))
	for pi, p := range parts {
		hs[pi], tails[pi] = bat.MaterialiseOids(p.Head), p.Tail
		if !p.HeadSorted {
			hs[pi], tails[pi] = sortByHead(hs[pi], p.Tail)
		}
	}
	var heads []bat.Oid
	var tail bat.Vector
	switch tails[0].Kind() {
	case bat.KInt:
		var v []int64
		heads, v = mergeRuns(hs, typedTails(tails, func(v bat.Vector) []int64 { return v.(*bat.Ints).V }))
		tail = bat.NewInts(v)
	case bat.KFloat:
		var v []float64
		heads, v = mergeRuns(hs, typedTails(tails, func(v bat.Vector) []float64 { return v.(*bat.Floats).V }))
		tail = bat.NewFloats(v)
	case bat.KStr:
		heads, tail = mergeStrings(hs, tails)
	case bat.KDate:
		var v []bat.Date
		heads, v = mergeRuns(hs, typedTails(tails, func(v bat.Vector) []bat.Date { return v.(*bat.Dates).V }))
		tail = bat.NewDates(v)
	case bat.KOid:
		var v []bat.Oid
		heads, v = mergeRuns(hs, typedTails(tails, bat.MaterialiseOids))
		tail = bat.NewOids(v)
	case bat.KBool:
		var v []bool
		heads, v = mergeRuns(hs, typedTails(tails, func(v bat.Vector) []bool { return v.(*bat.Bools).V }))
		tail = bat.NewBools(v)
	default:
		panic("algebra: merge of unsupported tail kind")
	}
	return mergedBAT(bat.NewOids(heads), tail)
}

// mergedBAT is a merge's result: its heads ascend and are unique.
func mergedBAT(head, tail bat.Vector) *bat.BAT {
	out := bat.New(head, tail)
	out.HeadSorted = true
	out.KeyUnique = true
	return out
}

// selfTailed reports whether every part has the uselect shape, a tail
// that is its own head (see PredEq): the merge then merges heads only.
func selfTailed(parts []*bat.BAT) bool {
	for _, p := range parts {
		if !ownTail(p) {
			return false
		}
	}
	return true
}

// ownTail reports whether b's tail is its head's storage.
func ownTail(b *bat.BAT) bool {
	h, ok := b.Head.(*bat.Oids)
	t, ok2 := b.Tail.(*bat.Oids)
	return ok && ok2 && len(h.V) == len(t.V) && (len(h.V) == 0 || &h.V[0] == &t.V[0])
}

// mergeStrings merges string runs as codes. Runs over one dictionary
// share it; runs over several merge their values into a dictionary the
// result owns.
func mergeStrings(hs [][]bat.Oid, tails []bat.Vector) ([]bat.Oid, bat.Vector) {
	d := tails[0].(*bat.Strings).D
	for _, t := range tails[1:] {
		if t.(*bat.Strings).D != d {
			heads, v := mergeRuns(hs, typedTails(tails, func(v bat.Vector) []string { return v.(*bat.Strings).Decode() }))
			return heads, bat.NewStrings(v)
		}
	}
	heads, v := mergeRuns(hs, typedTails(tails, func(v bat.Vector) []uint32 { return v.(*bat.Strings).C }))
	return heads, bat.StringsOf(v, d)
}

// sortByHead returns a part's heads and tail reordered by a stable sort
// on the head.
func sortByHead(h []bat.Oid, tail bat.Vector) ([]bat.Oid, bat.Vector) {
	sel := make(bat.SelectionVector, len(h))
	for i := range sel {
		sel[i] = int32(i)
	}
	slices.SortStableFunc(sel, func(a, b int32) int { return cmp.Compare(h[a], h[b]) })
	return bat.GatherOidsSel(bat.NewOids(h), sel), bat.GatherVectorSel(tail, sel)
}

// typedTails reads each part's tail values once through vals.
func typedTails[T any](tails []bat.Vector, vals func(bat.Vector) []T) [][]T {
	ts := make([][]T, len(tails))
	for i, v := range tails {
		ts[i] = vals(v)
	}
	return ts
}

// mergeRuns merges head-sorted (head, tail) runs into one with unique
// heads, folding them in two at a time: the earliest run wins a tie on
// a head, and within a run the first row does.
func mergeRuns[T any](hs [][]bat.Oid, ts [][]T) ([]bat.Oid, []T) {
	h, t := hs[0], ts[0]
	for i := 1; i < len(hs); i++ {
		h, t = mergeTwo(h, hs[i], t, ts[i])
	}
	return h, t
}

// mergeTwo merges two head-sorted runs with two pointers: on equal
// heads a's row comes first, and a head equal to the last one kept is
// dropped.
func mergeTwo[T any](ah, bh []bat.Oid, at, bt []T) ([]bat.Oid, []T) {
	heads := make([]bat.Oid, 0, len(ah)+len(bh))
	tails := make([]T, 0, len(ah)+len(bh))
	i, j := 0, 0
	for i < len(ah) || j < len(bh) {
		var h bat.Oid
		var t T
		if j == len(bh) || i < len(ah) && ah[i] <= bh[j] {
			h, t = ah[i], at[i]
			i++
		} else {
			h, t = bh[j], bt[j]
			j++
		}
		if n := len(heads); n == 0 || heads[n-1] != h {
			heads = append(heads, h)
			tails = append(tails, t)
		}
	}
	return heads, tails
}
