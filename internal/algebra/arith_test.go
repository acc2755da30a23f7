package algebra

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/bat"
)

func TestLessThan(t *testing.T) {
	a := bat.NewDenseHead(bat.NewInts([]int64{1, 5, 3, bat.NilInt}))
	b := bat.NewDenseHead(bat.NewInts([]int64{2, 4, 3, 7}))
	out := LessThan(a, b).Tail.(*bat.Bools).V
	want := []bool{true, false, false, false}
	for i, w := range want {
		if out[i] != w {
			t.Fatalf("lt[%d] = %v, want %v", i, out[i], w)
		}
	}
}

func TestLessThanDates(t *testing.T) {
	d1 := MkDate(1996, 1, 1)
	d2 := MkDate(1996, 2, 1)
	a := bat.NewDenseHead(bat.NewDates([]bat.Date{d1, d2}))
	b := bat.NewDenseHead(bat.NewDates([]bat.Date{d2, d1}))
	out := LessThan(a, b).Tail.(*bat.Bools).V
	if !out[0] || out[1] {
		t.Fatalf("date lt wrong: %v", out)
	}
}

func TestLessThanFloats(t *testing.T) {
	a := bat.NewDenseHead(bat.NewFloats([]float64{1.5, bat.NilFloat()}))
	b := bat.NewDenseHead(bat.NewFloats([]float64{2.5, 9}))
	out := LessThan(a, b).Tail.(*bat.Bools).V
	if !out[0] || out[1] {
		t.Fatalf("float lt wrong: %v", out)
	}
}

func TestAvgFloat(t *testing.T) {
	b := bat.NewDenseHead(bat.NewFloats([]float64{1, 2, 3, bat.NilFloat()}))
	if got := AvgFloat(b); got != 2 {
		t.Fatalf("avg = %v", got)
	}
	ints := bat.NewDenseHead(bat.NewInts([]int64{2, 4, bat.NilInt}))
	if got := AvgFloat(ints); got != 3 {
		t.Fatalf("int avg = %v", got)
	}
	empty := bat.NewDenseHead(bat.NewFloats(nil))
	if !math.IsNaN(AvgFloat(empty)) {
		t.Fatal("avg of empty should be nil")
	}
}

func TestNotLikeSelect(t *testing.T) {
	b := bat.NewDenseHead(bat.NewStrings([]string{"promo pack", "standard", bat.NilStr, "promo box"}))
	r := Filter(b, Pred{Kind: PredNotLike, Pattern: "promo%"})
	if r.Len() != 1 || r.Tail.Get(0) != "standard" {
		t.Fatalf("notlike wrong: %s", r.Dump(5))
	}
	// LIKE and NOT LIKE filters partition the non-nil rows.
	l := Filter(b, Pred{Kind: PredLike, Pattern: "promo%"})
	if l.Len()+r.Len() != 3 {
		t.Fatalf("partition broken: %d + %d != 3", l.Len(), r.Len())
	}
}

// Property: for any pattern built from literals, %, and _, the LIKE
// and NOT LIKE filters partition the non-nil input rows.
func TestLikePartitionProperty(t *testing.T) {
	alphabet := []string{"a", "b", "%", "_"}
	fn := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pat := ""
		for i := 0; i < rng.Intn(6); i++ {
			pat += alphabet[rng.Intn(len(alphabet))]
		}
		n := rng.Intn(40) + 1
		vals := make([]string, n)
		for i := range vals {
			s := ""
			for j := 0; j < rng.Intn(5); j++ {
				s += alphabet[rng.Intn(2)] // only literals in the data
			}
			vals[i] = s
		}
		b := bat.NewDenseHead(bat.NewStrings(vals))
		l := Filter(b, Pred{Kind: PredLike, Pattern: pat})
		nl := Filter(b, Pred{Kind: PredNotLike, Pattern: pat})
		return l.Len()+nl.Len() == n
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the sorted k-way merge path equals the generic sort-based
// merge path of MergeDedupByHead.
func TestMergeSortedEqualsGeneric(t *testing.T) {
	fn := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mkPart := func() *bat.BAT {
			n := rng.Intn(20) + 1
			heads := make([]bat.Oid, n)
			tails := make([]int64, n)
			h := bat.Oid(rng.Intn(5))
			for i := range heads {
				heads[i] = h
				// Tail is a function of head so duplicates agree.
				tails[i] = int64(h) * 7
				h += bat.Oid(rng.Intn(4) + 1)
			}
			p := bat.New(bat.NewOids(heads), bat.NewInts(tails))
			p.HeadSorted = true
			return p
		}
		parts := []*bat.BAT{mkPart(), mkPart(), mkPart()}
		sorted := MergeDedupByHead(parts)
		// Force the generic path by cloning without the flag.
		generic := MergeDedupByHead([]*bat.BAT{
			unsortedClone(parts[0]), unsortedClone(parts[1]), unsortedClone(parts[2]),
		})
		if sorted.Len() != generic.Len() {
			return false
		}
		for i := 0; i < sorted.Len(); i++ {
			if bat.OidAt(sorted.Head, i) != bat.OidAt(generic.Head, i) ||
				sorted.Tail.Get(i) != generic.Tail.Get(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestMergeMatchesReferenceEveryKind checks MergeDedupByHead
// (algebra.union is its two-part case) against a boxed reference —
// every row of every part in turn, stably sorted by head, the first of
// each head kept — for every tail kind: two or three parts, heads
// repeating within and across parts (the earlier part's row wins a
// tie), tails that differ between equal heads, dense heads, empty
// parts and parts not flagged head-sorted, whose rows are shuffled.
func TestMergeMatchesReferenceEveryKind(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	mkPart := func(kind bat.Kind) *bat.BAT {
		n := rng.Intn(30)
		var head bat.Vector
		if rng.Intn(4) == 0 {
			head = bat.NewDense(bat.Oid(rng.Intn(10)), n)
		} else {
			h := make([]bat.Oid, n)
			o := bat.Oid(rng.Intn(5))
			for i := range h {
				h[i] = o
				o += bat.Oid(rng.Intn(3))
			}
			head = bat.NewOids(h)
		}
		p := bat.New(head, randVector(rng, kind, n, false))
		p.HeadSorted = true
		if rng.Intn(3) == 0 {
			p = bat.GatherSel(p, shuffledSel(rng, n))
		}
		return p
	}
	type row struct {
		head bat.Oid
		tail any
	}
	// uselectPart is a part of the uselect shape: its tail is its head.
	uselectPart := func() *bat.BAT {
		p := mkPart(bat.KOid)
		hv := bat.NewOids(bat.MaterialiseOids(p.Head))
		u := bat.New(hv, hv.Slice(0, hv.Len()))
		u.HeadSorted = p.HeadSorted
		return u
	}
	for trial := 0; trial < 800; trial++ {
		kind := diffKinds[trial%len(diffKinds)]
		parts := []*bat.BAT{mkPart(kind), mkPart(kind)}
		if trial%3 == 0 {
			parts = append(parts, mkPart(kind))
		}
		uselect := trial >= 600
		if uselect {
			kind = bat.KOid
			for i := range parts {
				parts[i] = uselectPart()
			}
		}
		var want []row
		for _, p := range parts {
			for i := 0; i < p.Len(); i++ {
				want = append(want, row{bat.OidAt(p.Head, i), p.Tail.Get(i)})
			}
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].head < want[j].head })
		want = slices.CompactFunc(want, func(a, b row) bool { return a.head == b.head })
		got := MergeDedupByHead(parts)
		if got.Len() != len(want) || !got.HeadSorted || !got.KeyUnique {
			t.Fatalf("%v trial %d: %d rows (sorted %v, unique %v), want %d", kind, trial, got.Len(), got.HeadSorted, got.KeyUnique, len(want))
		}
		for i, w := range want {
			if bat.OidAt(got.Head, i) != w.head || !valEq(got.Tail.Get(i), w.tail) {
				t.Fatalf("%v trial %d row %d: (%v, %v), want (%v, %v)", kind, trial, i, bat.OidAt(got.Head, i), got.Tail.Get(i), w.head, w.tail)
			}
		}
		if uselect && !ownTail(got) {
			t.Fatalf("trial %d: uselect-shaped parts merged into a tail apart from the head", trial)
		}
	}
}

// shuffledSel returns the positions 0..n-1 in random order.
func shuffledSel(rng *rand.Rand, n int) bat.SelectionVector {
	sel := make(bat.SelectionVector, n)
	for i, p := range rng.Perm(n) {
		sel[i] = int32(p)
	}
	return sel
}

func unsortedClone(b *bat.BAT) *bat.BAT {
	c := bat.New(b.Head, b.Tail)
	c.HeadSorted = false
	return c
}

func TestMergeSortedPartsManyKinds(t *testing.T) {
	mk := func(heads []bat.Oid, tail bat.Vector) *bat.BAT {
		p := bat.New(bat.NewOids(heads), tail)
		p.HeadSorted = true
		return p
	}
	// Strings.
	a := mk([]bat.Oid{1, 3}, bat.NewStrings([]string{"x", "y"}))
	b := mk([]bat.Oid{2, 3}, bat.NewStrings([]string{"z", "y"}))
	m := MergeDedupByHead([]*bat.BAT{a, b})
	if m.Len() != 3 || m.Tail.Get(2) != "y" {
		t.Fatalf("string merge wrong: %s", m.Dump(5))
	}
	// Dates.
	ad := mk([]bat.Oid{1}, bat.NewDates([]bat.Date{100}))
	bd := mk([]bat.Oid{2}, bat.NewDates([]bat.Date{200}))
	md := MergeDedupByHead([]*bat.BAT{ad, bd})
	if md.Len() != 2 {
		t.Fatalf("date merge wrong: %s", md.Dump(5))
	}
	// Bools.
	ab := mk([]bat.Oid{1}, bat.NewBools([]bool{true}))
	bb := mk([]bat.Oid{1}, bat.NewBools([]bool{true}))
	mbo := MergeDedupByHead([]*bat.BAT{ab, bb})
	if mbo.Len() != 1 {
		t.Fatalf("bool merge wrong: %s", mbo.Dump(5))
	}
	// Oid tails.
	ao := mk([]bat.Oid{1}, bat.NewOids([]bat.Oid{11}))
	bo := mk([]bat.Oid{2}, bat.NewOids([]bat.Oid{22}))
	mo := MergeDedupByHead([]*bat.BAT{ao, bo})
	if mo.Len() != 2 || bat.OidAt(mo.Tail, 1) != 22 {
		t.Fatalf("oid merge wrong: %s", mo.Dump(5))
	}
	// Float tails.
	af := mk([]bat.Oid{5}, bat.NewFloats([]float64{0.5}))
	bf := mk([]bat.Oid{6}, bat.NewFloats([]float64{0.25}))
	mf := MergeDedupByHead([]*bat.BAT{af, bf})
	if mf.Len() != 2 || mf.Tail.Get(0) != 0.5 {
		t.Fatalf("float merge wrong: %s", mf.Dump(5))
	}
}

func TestCmpAllTypes(t *testing.T) {
	if Cmp(int64(1), int64(2)) != -1 || Cmp(int64(2), int64(1)) != 1 || Cmp(int64(1), int64(1)) != 0 {
		t.Fatal("int cmp")
	}
	if Cmp(1.5, 2.5) != -1 || Cmp("a", "b") != -1 || Cmp(bat.Date(1), bat.Date(2)) != -1 {
		t.Fatal("cmp")
	}
	if Cmp(bat.Oid(1), bat.Oid(2)) != -1 {
		t.Fatal("oid cmp")
	}
	if Cmp(false, true) != -1 || Cmp(true, false) != 1 || Cmp(true, true) != 0 {
		t.Fatal("bool cmp")
	}
}

func TestScalarKindAndNil(t *testing.T) {
	if ScalarKind(int64(1)) != bat.KInt || ScalarKind("x") != bat.KStr ||
		ScalarKind(1.0) != bat.KFloat || ScalarKind(bat.Date(1)) != bat.KDate ||
		ScalarKind(bat.Oid(1)) != bat.KOid || ScalarKind(true) != bat.KBool {
		t.Fatal("scalar kinds wrong")
	}
	if !IsNilScalar(bat.NilInt) || IsNilScalar(int64(0)) {
		t.Fatal("int nil detection")
	}
	if !IsNilScalar(bat.NilFloat()) || !IsNilScalar(bat.NilStr) ||
		!IsNilScalar(bat.NilDate) || !IsNilScalar(bat.NilOid) {
		t.Fatal("nil detection")
	}
	if IsNilScalar(true) {
		t.Fatal("bool has no nil")
	}
}
