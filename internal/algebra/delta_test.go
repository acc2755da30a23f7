package algebra

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bat"
)

func deadSet(oids ...bat.Oid) []bat.Oid { return oids }

func TestSplitHeads(t *testing.T) {
	b := bat.New(bat.NewOids([]bat.Oid{0, 2, 5, 7}), bat.NewInts([]int64{10, 20, 30, 40}))

	kept, removed := SplitHeads(b, deadSet(2, 7))
	if kept.Len() != 2 || removed.Len() != 2 {
		t.Fatalf("split sizes: kept=%d removed=%d", kept.Len(), removed.Len())
	}
	if bat.OidAt(kept.Head, 0) != 0 || bat.OidAt(kept.Head, 1) != 5 {
		t.Fatalf("kept heads wrong: %v %v", kept.Head.Get(0), kept.Head.Get(1))
	}
	if removed.Tail.Get(0) != int64(20) || removed.Tail.Get(1) != int64(40) {
		t.Fatalf("removed tails wrong: %v %v", removed.Tail.Get(0), removed.Tail.Get(1))
	}

	// Empty delta: the input comes back untouched, no removed rows.
	kept, removed = SplitHeads(b, nil)
	if kept != b || removed != nil {
		t.Fatal("empty dead set must return the input unchanged")
	}
	// Dead oids absent from b: same.
	kept, removed = SplitHeads(b, deadSet(99))
	if kept != b || removed != nil {
		t.Fatal("irrelevant dead set must return the input unchanged")
	}

	// All rows deleted.
	kept, removed = SplitHeads(b, deadSet(0, 2, 5, 7))
	if kept.Len() != 0 || removed.Len() != 4 {
		t.Fatalf("all-deleted split: kept=%d removed=%d", kept.Len(), removed.Len())
	}
}

func TestDeltaCount(t *testing.T) {
	add := bat.New(bat.NewDense(10, 3), bat.NewInts([]int64{1, 2, 3}))
	rem := bat.New(bat.NewOids([]bat.Oid{1}), bat.NewInts([]int64{5}))
	if got := DeltaCount(7, add, rem); got != 9 {
		t.Fatalf("DeltaCount = %d, want 9", got)
	}
	if got := DeltaCount(7, nil, nil); got != 7 {
		t.Fatalf("DeltaCount with nil deltas = %d, want 7", got)
	}
}

func TestDeltaSumInt(t *testing.T) {
	add := bat.New(bat.NewDense(10, 3), bat.NewInts([]int64{1, 2, bat.NilInt}))
	rem := bat.New(bat.NewOids([]bat.Oid{1, 4}), bat.NewInts([]int64{5, bat.NilInt}))
	// 100 + (1+2) - 5; nils ignored, matching SumInt semantics.
	if got := DeltaSumInt(100, add, rem); got != 98 {
		t.Fatalf("DeltaSumInt = %d, want 98", got)
	}
	if got := DeltaSumInt(100, nil, nil); got != 100 {
		t.Fatalf("DeltaSumInt with nil deltas = %d, want 100", got)
	}
	// Delta application must agree with recomputation over the merged rows.
	base := bat.New(bat.NewDense(0, 4), bat.NewInts([]int64{5, 7, 11, 13}))
	kept, removed := SplitHeads(base, deadSet(1))
	merged := bat.Append(kept, add)
	if got, want := DeltaSumInt(SumInt(base), add, removed), SumInt(merged); got != want {
		t.Fatalf("delta sum %d != recomputed sum %d", got, want)
	}
}

// splitHeadsRef is the map-probing SplitHeads this package shipped
// before the sorted-slice one, kept as the reference.
func splitHeadsRef(b *bat.BAT, dead map[bat.Oid]struct{}) (kept, removed *bat.BAT) {
	if len(dead) == 0 {
		return b, nil
	}
	var keep, drop []int
	for i := 0; i < b.Len(); i++ {
		if _, ok := dead[bat.OidAt(b.Head, i)]; ok {
			drop = append(drop, i)
		} else {
			keep = append(keep, i)
		}
	}
	if len(drop) == 0 {
		return b, nil
	}
	return bat.Gather(b, keep), bat.Gather(b, drop)
}

// TestSplitHeadsMatchesReference compares the binary-searching split
// with the map-probing reference over random rowsets: dense, sorted
// (with the occasional duplicate head) and shuffled heads, dead sets
// that miss, graze and cover them.
func TestSplitHeadsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	same := func(x, y *bat.BAT) bool {
		if x == nil || y == nil {
			return x == y
		}
		return slices.Equal(bat.MaterialiseOids(x.Head), bat.MaterialiseOids(y.Head)) &&
			slices.Equal(x.Tail.(*bat.Ints).V, y.Tail.(*bat.Ints).V)
	}
	for round := 0; round < 2000; round++ {
		n := rng.Intn(40)
		tail := make([]int64, n)
		for i := range tail {
			tail[i] = rng.Int63n(1000)
		}
		var b *bat.BAT
		switch shape := rng.Intn(3); shape {
		case 0:
			b = bat.New(bat.NewDense(bat.Oid(rng.Intn(5)), n), bat.NewInts(tail))
		default:
			heads := make([]bat.Oid, n)
			next := bat.Oid(rng.Intn(5))
			for i := range heads {
				heads[i] = next
				next += bat.Oid(rng.Intn(4)) // 0: a duplicate head
			}
			b = bat.New(bat.NewOids(heads), bat.NewInts(tail))
			b.HeadSorted = true
			if shape == 2 {
				rng.Shuffle(n, func(i, j int) { heads[i], heads[j] = heads[j], heads[i] })
				b.HeadSorted = false
			}
		}
		set := map[bat.Oid]struct{}{}
		for i := rng.Intn(8); i > 0; i-- {
			set[bat.Oid(rng.Intn(130))] = struct{}{}
		}
		dead := make([]bat.Oid, 0, len(set))
		for o := range set {
			dead = append(dead, o)
		}
		slices.Sort(dead)

		kept, removed := SplitHeads(b, dead)
		wantKept, wantRemoved := splitHeadsRef(b, set)
		if !same(kept, wantKept) || !same(removed, wantRemoved) {
			t.Fatalf("round %d: split of %s by %v\nkept    %v\nwant    %v\nremoved %v\nwant    %v",
				round, b.Dump(0), dead, kept.Dump(0), wantKept.Dump(0), removed, wantRemoved)
		}
		if (wantKept == b) != (kept == b) {
			t.Fatalf("round %d: an untouched input must come back uncopied, a touched one must not", round)
		}
		if removed != nil && (kept.HeadSorted != b.HeadSorted || removed.HeadSorted != b.HeadSorted) {
			t.Fatalf("round %d: split lost the head order flag", round)
		}
	}
}

// TestFilterHeadsMatchesFilter: FilterHeads keeps the heads Filter's
// result has, in order, over dense, sparse and tail-sorted inputs (the
// last take Filter's binary-searched run), and allocates nothing for a
// dead row the predicate rejects — a delete's usual question to a
// filter.
func TestFilterHeadsMatchesFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for round := 0; round < 2000; round++ {
		n := rng.Intn(30)
		tail := make([]int64, n)
		for i := range tail {
			tail[i] = rng.Int63n(50)
		}
		sorted := rng.Intn(3) == 0
		if sorted {
			slices.Sort(tail)
		}
		var b *bat.BAT
		if rng.Intn(2) == 0 {
			b = bat.New(bat.NewDense(bat.Oid(rng.Intn(5)), n), bat.NewInts(tail))
		} else {
			heads := make([]bat.Oid, n)
			for i, next := 0, bat.Oid(0); i < n; i++ {
				next += 1 + bat.Oid(rng.Intn(3))
				heads[i] = next
			}
			b = bat.New(bat.NewOids(heads), bat.NewInts(tail))
		}
		b.HeadSorted, b.TailSorted = true, sorted
		var p Pred
		switch lo := rng.Int63n(50); rng.Intn(3) {
		case 0:
			p = inRange(lo, lo+rng.Int63n(20), rng.Intn(2) == 0, rng.Intn(2) == 0)
		case 1:
			p = equalTo(lo)
		default:
			p = Pred{Kind: PredNotNil}
		}
		want := bat.MaterialiseOids(Filter(b, p).Head)
		if got := FilterHeads(b, p); !slices.Equal(got, want) {
			t.Fatalf("round %d: heads of %s kept by %+v: %v, Filter keeps %v", round, b.Dump(0), p, got, want)
		}
	}
	dead := bat.New(bat.NewOids([]bat.Oid{7}), bat.NewInts([]int64{99}))
	p := inRange(int64(0), int64(10), true, true)
	if got := medianAlloc(func() { FilterHeads(dead, p) }); got != 0 {
		t.Fatalf("FilterHeads over a rejected row allocates %d B, want 0", got)
	}
}
