package algebra

import (
	"slices"

	"repro/internal/bat"
)

// Delta-apply kernels for incremental pool maintenance (IVM over
// recycled intermediates). The recycler's maintain mode treats a pool
// entry as a materialized view and applies a commit's INSERT/DELETE
// delta through the entry's lineage instead of invalidating it; these
// kernels are the O(|delta|) primitives that path composes.
//
// The correctness argument all of them lean on: maintained rowsets
// stay in ascending head-oid order. Deletions remove rows preserving
// order; insertions append rows with fresh oids larger than every
// existing oid. A maintained rowset is therefore the same sequence a
// from-scratch recompute would produce — the bit-identity the
// differential tests assert.

// DeadPositions returns, ascending, the positions of b whose head is in
// dead (ascending, distinct oids — what a delete commit reports). A
// sorted head is binary-searched once per dead oid, so a commit that
// kills nothing in b costs O(|dead| log |b|); an unsorted head is
// scanned, probing dead by binary search.
func DeadPositions(b *bat.BAT, dead []bat.Oid) []int {
	var pos []int
	switch h := b.Head.(type) {
	case *bat.DenseOids:
		for _, o := range dead {
			if o >= h.Start && o < h.Start+bat.Oid(h.N) {
				pos = append(pos, int(o-h.Start))
			}
		}
	case *bat.Oids:
		if b.HeadSorted {
			// Duplicate heads (a rowset below a join never has them, but
			// the contract does not forbid it) sit in one run.
			for _, o := range dead {
				i, _ := slices.BinarySearch(h.V, o)
				for ; i < len(h.V) && h.V[i] == o; i++ {
					pos = append(pos, i)
				}
			}
			break
		}
		for i, o := range h.V {
			if _, ok := slices.BinarySearch(dead, o); ok {
				pos = append(pos, i)
			}
		}
	}
	return pos
}

// SplitHeads partitions b's rows by head membership in dead (ascending,
// distinct): kept holds the survivors, removed the rows whose head is
// in dead. Aggregate maintenance needs the removed rows' VALUES — the
// catalog only reports deleted oids, but the pre-update pooled result
// still carries the tombstoned rows, so the split recovers them without
// touching base storage. Both outputs preserve b's row order, and b
// itself comes back as kept, uncopied, when none of its heads is dead.
func SplitHeads(b *bat.BAT, dead []bat.Oid) (kept, removed *bat.BAT) {
	pos := DeadPositions(b, dead)
	if len(pos) == 0 {
		return b, nil
	}
	kept = bat.New(bat.Drop(b.Head, pos), bat.Drop(b.Tail, pos))
	kept.HeadSorted = b.HeadSorted
	removed = bat.Gather(b, pos)
	removed.HeadSorted = b.HeadSorted
	return kept, removed
}

// FilterHeads returns the heads of b's rows that p keeps, in b's row
// order: Filter's selection without its result BAT. It allocates
// nothing when p keeps no row — what a delete's maintenance mostly
// learns of a filter over the dead rows: that it did not hold them.
func FilterHeads(b *bat.BAT, p Pred) []bat.Oid {
	var buf selBuf
	defer buf.release()
	switch sel := p.scan(b.Tail, &buf); {
	case sel == nil:
		return bat.MaterialiseOids(b.Head)
	case len(sel) == 0:
		return nil
	default:
		return bat.GatherOidsSel(b.Head, sel)
	}
}

// DeltaCount maintains a scalar aggr.count: old plus the inserted
// rows minus the deleted ones.
func DeltaCount(old int64, added, removed *bat.BAT) int64 {
	if added != nil {
		old += int64(added.Len())
	}
	if removed != nil {
		old -= int64(removed.Len())
	}
	return old
}

// DeltaSumInt maintains a scalar aggr.sumInt: integer addition is
// associative and commutative, so adding the inserted rows' sum and
// subtracting the removed rows' is exact. Nil deltas contribute
// nothing. (Float sums are NOT maintained this way: floating-point
// addition is non-associative, so the maintain path recomputes
// SumFloat over the maintained parent rowset instead — same values in
// the same order as a full recompute, hence bit-identical.)
func DeltaSumInt(old int64, added, removed *bat.BAT) int64 {
	if added != nil && added.Len() > 0 {
		old += SumInt(added)
	}
	if removed != nil && removed.Len() > 0 {
		old -= SumInt(removed)
	}
	return old
}
