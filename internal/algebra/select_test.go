package algebra

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/bat"
)

func intBAT(vals ...int64) *bat.BAT { return bat.NewDenseHead(bat.NewInts(vals)) }

// inRange is the range predicate lo ≤/< v ≤/< hi; a nil bound is open.
func inRange(lo, hi any, incLo, incHi bool) Pred {
	return Pred{Kind: PredRange, Range: Range{Lo: lo, Hi: hi, IncLo: incLo, IncHi: incHi}}
}

// equalTo is the equality predicate v == w.
func equalTo(w any) Pred { return Pred{Kind: PredEq, V: w} }

func TestSelectIntRange(t *testing.T) {
	b := intBAT(5, 1, 9, 3, 7)
	r := Filter(b, inRange(int64(3), int64(7), true, true))
	if r.Len() != 3 {
		t.Fatalf("len = %d, want 3", r.Len())
	}
	wantHeads := []bat.Oid{0, 3, 4}
	for i, w := range wantHeads {
		if bat.OidAt(r.Head, i) != w {
			t.Fatalf("head[%d] = %v, want %v", i, bat.OidAt(r.Head, i), w)
		}
	}
}

func TestSelectExclusiveBounds(t *testing.T) {
	b := intBAT(3, 4, 5, 6, 7)
	r := Filter(b, inRange(int64(3), int64(7), false, false))
	if r.Len() != 3 {
		t.Fatalf("len = %d, want 3 (exclusive)", r.Len())
	}
	r2 := Filter(b, inRange(int64(3), int64(7), true, false))
	if r2.Len() != 4 {
		t.Fatalf("len = %d, want 4 (half-open)", r2.Len())
	}
}

func TestSelectOpenBounds(t *testing.T) {
	b := intBAT(1, 2, 3)
	if r := Filter(b, inRange(nil, int64(2), true, true)); r.Len() != 2 {
		t.Fatalf("hi-only len = %d", r.Len())
	}
	if r := Filter(b, inRange(int64(2), nil, true, true)); r.Len() != 2 {
		t.Fatalf("lo-only len = %d", r.Len())
	}
	if r := Filter(b, inRange(nil, nil, true, true)); r.Len() != 3 {
		t.Fatalf("open len = %d", r.Len())
	}
}

func TestSelectSkipsNil(t *testing.T) {
	b := intBAT(1, bat.NilInt, 3)
	r := Filter(b, inRange(nil, nil, true, true))
	if r.Len() != 2 {
		t.Fatalf("nil not skipped: len = %d", r.Len())
	}
}

func TestSelectSortedUsesView(t *testing.T) {
	vals := make([]int64, 100)
	for i := range vals {
		vals[i] = int64(i)
	}
	b := intBAT(vals...)
	b.TailSorted = true
	r := Filter(b, inRange(int64(10), int64(90), true, true))
	if r.Len() != 81 {
		t.Fatalf("sorted select len = %d", r.Len())
	}
	// The result of a sorted select must be a cheap view: its tail
	// must not own a fresh copy of the qualifying values.
	if r.Tail.ByteSize() >= int64(r.Len())*8 {
		t.Fatalf("sorted select materialised its tail: %d bytes", r.Tail.ByteSize())
	}
	if bat.OidAt(r.Head, 0) != 10 {
		t.Fatalf("sorted select head[0] = %v", bat.OidAt(r.Head, 0))
	}
}

func TestSelectDates(t *testing.T) {
	d := func(y, m, dd int) bat.Date { return MkDate(y, m, dd) }
	b := bat.NewDenseHead(bat.NewDates([]bat.Date{d(1996, 6, 30), d(1996, 7, 1), d(1996, 8, 15), d(1996, 10, 1)}))
	r := Filter(b, inRange(d(1996, 7, 1), d(1996, 10, 1), true, false))
	if r.Len() != 2 {
		t.Fatalf("date range len = %d, want 2", r.Len())
	}
}

func TestUselect(t *testing.T) {
	b := bat.NewDenseHead(bat.NewStrings([]string{"R", "A", "R", "N"}))
	r := Filter(b, equalTo("R"))
	if r.Len() != 2 || bat.OidAt(r.Head, 0) != 0 || bat.OidAt(r.Head, 1) != 2 {
		t.Fatalf("uselect wrong: %s", r.Dump(10))
	}
	// Tail shares head storage: near-zero cost.
	if r.Tail.ByteSize() > 64 {
		t.Fatalf("uselect tail materialised: %d bytes", r.Tail.ByteSize())
	}
}

func TestSelectNotNil(t *testing.T) {
	b := bat.NewDenseHead(bat.NewFloats([]float64{1.5, bat.NilFloat(), 2.5}))
	r := Filter(b, Pred{Kind: PredNotNil})
	if r.Len() != 2 {
		t.Fatalf("len = %d", r.Len())
	}
	// Identity when no nils present.
	c := bat.NewDenseHead(bat.NewInts([]int64{1, 2}))
	if Filter(c, Pred{Kind: PredNotNil}) != c {
		t.Fatal("a not-nil Filter should be identity without nils")
	}
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		pat, s string
		want   bool
	}{
		{"%green%", "dark green metal", true},
		{"%green%", "dark red metal", false},
		{"abc", "abc", true},
		{"abc", "abcd", false},
		{"a_c", "abc", true},
		{"a_c", "ac", false},
		{"%", "", true},
		{"%a%b%", "xaxbx", true},
		{"%a%b%", "xbxax", false},
		{"a%", "abc", true},
		{"%c", "abc", true},
	}
	for _, c := range cases {
		if got := likeMatch(c.pat, c.s); got != c.want {
			t.Errorf("likeMatch(%q,%q) = %v, want %v", c.pat, c.s, got, c.want)
		}
	}
}

func TestLikeSelect(t *testing.T) {
	b := bat.NewDenseHead(bat.NewStrings([]string{"forest green", "red", "lime green shiny", bat.NilStr}))
	r := Filter(b, Pred{Kind: PredLike, Pattern: "%green%"})
	if r.Len() != 2 {
		t.Fatalf("likeselect len = %d", r.Len())
	}
}

func TestLikeLiteral(t *testing.T) {
	lit, pure := LikeLiteral("%green%")
	if lit != "green" || !pure {
		t.Fatalf("LikeLiteral = %q, %v", lit, pure)
	}
	lit, pure = LikeLiteral("gr%een")
	if lit != "een" || pure {
		t.Fatalf("LikeLiteral = %q, %v", lit, pure)
	}
	_, pure = LikeLiteral("%gr_en%")
	if pure {
		t.Fatal("pattern with _ must not be pure infix")
	}
}

// Property: a sorted-path select equals the scan-path select.
func TestSelectSortedEqualsScan(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(60) + 1
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(rng.Intn(30))
		}
		sorted := append([]int64(nil), vals...)
		for i := 1; i < len(sorted); i++ {
			for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
				sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
			}
		}
		b := intBAT(sorted...)
		bs := intBAT(sorted...)
		bs.TailSorted = true
		lo := int64(rng.Intn(30))
		hi := lo + int64(rng.Intn(10))
		incLo, incHi := rng.Intn(2) == 0, rng.Intn(2) == 0
		a := Filter(b, inRange(lo, hi, incLo, incHi))
		c := Filter(bs, inRange(lo, hi, incLo, incHi))
		if a.Len() != c.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if a.Tail.Get(i) != c.Tail.Get(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: select(select(b, L), L') == select(b, L') when [L'] ⊂ [L].
// This is the soundness condition behind the recycler's singleton
// subsumption (paper §5.1).
func TestSelectSubsumptionEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(80) + 1
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(rng.Intn(50))
		}
		b := intBAT(vals...)
		lo1 := int64(rng.Intn(20))
		hi1 := lo1 + int64(rng.Intn(25)) + 5
		lo2 := lo1 + int64(rng.Intn(3))
		hi2 := hi1 - int64(rng.Intn(3))
		if hi2 < lo2 {
			hi2 = lo2
		}
		super := Filter(b, inRange(lo1, hi1, true, true))
		direct := Filter(b, inRange(lo2, hi2, true, true))
		viaSuper := Filter(super, inRange(lo2, hi2, true, true))
		if direct.Len() != viaSuper.Len() {
			return false
		}
		for i := 0; i < direct.Len(); i++ {
			if bat.OidAt(direct.Head, i) != bat.OidAt(viaSuper.Head, i) ||
				direct.Tail.Get(i) != viaSuper.Tail.Get(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the per-instruction chain over a sorted column — a first
// Filter that binary-searches the tail (a range returns a zero-copy
// view, which the next Filter searches again), a semijoin switching to
// another column after an equality, then Filters one at a time —
// equals the same chain over an unflagged copy, which scans every step.
func TestFilterSortedFirstMatchesStepwise(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	bound := func() any { return randBound(rng, bat.KInt) }
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(80) + 1
		tail := randVector(rng, bat.KInt, n, true)
		sorted := bat.New(bat.NewDense(3, n), tail)
		sorted.TailSorted = true
		scanned := bat.New(bat.NewDense(3, n), tail)
		first := inRange(bound(), bound(), rng.Intn(2) == 0, rng.Intn(2) == 0)
		if rng.Intn(3) == 0 {
			first = equalTo(int64(rng.Intn(40)))
		}
		got, want := Filter(sorted, first), Filter(scanned, first)
		if first.Kind == PredEq {
			other := bat.New(bat.NewDense(3, n), randVector(rng, bat.KInt, n, false))
			got, want = Semijoin(other, got), Semijoin(other, want)
		}
		for k := rng.Intn(3) + 1; k > 0; k-- {
			p := inRange(bound(), bound(), rng.Intn(2) == 0, rng.Intn(2) == 0)
			if rng.Intn(3) == 0 {
				p = Pred{Kind: PredNotNil}
			}
			got, want = Filter(got, p), Filter(want, p)
		}
		if got.Len() != want.Len() {
			t.Fatalf("trial %d: sorted chain %d rows, scanned %d", trial, got.Len(), want.Len())
		}
		for i := 0; i < got.Len(); i++ {
			if bat.OidAt(got.Head, i) != bat.OidAt(want.Head, i) || got.Tail.Get(i) != want.Tail.Get(i) {
				t.Fatalf("trial %d row %d: (%v, %v) want (%v, %v)", trial, i,
					bat.OidAt(got.Head, i), got.Tail.Get(i), bat.OidAt(want.Head, i), want.Tail.Get(i))
			}
		}
		expectTruthfulFlags(t, fmt.Sprintf("trial %d", trial), got)
	}
}

// The buffer contract: Filter and Semijoin borrow their column-sized
// scratch selection from selPool and return it before they do, so a
// result never aliases it and a call allocates its result, not its
// input.

// snapshot copies a result's rows, to compare against after later
// kernel calls have reused the pooled buffer.
func snapshot(b *bat.BAT) ([]bat.Oid, []any) {
	tails := make([]any, b.Len())
	for i := range tails {
		tails[i] = b.Tail.Get(i)
	}
	return headsOf(b), tails
}

func TestFilterResultsOutliveBuffer(t *testing.T) {
	floats := randFloats(20_000, 31)
	ints := randInts(20_000, 32)
	strs := bat.NewDenseHead(randVector(rand.New(rand.NewSource(33)), bat.KStr, 20_000, false))
	results := []*bat.BAT{
		Filter(floats, inRange(10.0, 20.0, true, true)),
		Filter(ints, equalTo(ints.Tail.Get(7).(int64))),
		Filter(strs, Pred{Kind: PredLike, Pattern: "%a%"}),
		Semijoin(ints, Filter(ints, inRange(int64(0), int64(1<<18), true, true))),
	}
	heads := make([][]bat.Oid, len(results))
	tails := make([][]any, len(results))
	for i, r := range results {
		heads[i], tails[i] = snapshot(r)
	}
	for i := 0; i < 20; i++ {
		Filter(floats, inRange(float64(i), float64(i)+300, true, true))
		Filter(ints, Pred{Kind: PredNotNil})
		Semijoin(floats, Filter(floats, inRange(float64(i), 200.0, true, true)))
	}
	for i, r := range results {
		h, tl := snapshot(r)
		if !slices.Equal(h, heads[i]) || !slices.EqualFunc(tl, tails[i], valEq) {
			t.Fatalf("result %d changed after later kernel calls reused the pooled buffer", i)
		}
	}
}

func TestFilterConcurrent(t *testing.T) {
	data := randFloats(50_000, 34)
	const workers, rounds = 4, 30
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				lo := float64(w*40 + i)
				got := Filter(data, inRange(lo, lo+50, true, false))
				want := refSelect(data, lo, lo+50, true, false)
				if got.Len() != len(want) {
					t.Errorf("worker %d round %d: %d rows, want %d", w, i, got.Len(), len(want))
					return
				}
				for k, p := range want {
					if bat.OidAt(got.Head, k) != bat.Oid(p) {
						t.Errorf("worker %d round %d: row %d head %v, want %d", w, i, k, bat.OidAt(got.Head, k), p)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestFilterAllocatesItsResult gates the memory contract as a count: a
// 1e6-row float range keeping ≈1 % of the rows allocates at most twice
// its result's bytes.
func TestFilterAllocatesItsResult(t *testing.T) {
	data := randFloats(1_000_000, 35)
	pred := inRange(100.0, 103.6, true, true)
	res := Filter(data, pred)
	resultBytes := uint64(res.Len()) * (8 + 8) // oid head + float tail
	if got := medianAlloc(func() { Filter(data, pred) }); got > 2*resultBytes {
		t.Fatalf("a 1e6-row range Filter allocates %d B, over twice its %d-row result (%d B)", got, res.Len(), resultBytes)
	}
}

// medianAlloc returns the median bytes one call of f allocates over 41
// calls. The median is taken because a GC may empty selPool, and the
// race detector drops one Put in four, either of which makes one call
// allocate its buffer anew. With 41 samples the median fails only when
// 21 of them draw a fresh buffer: about 0.03 % of race runs.
func medianAlloc(f func()) uint64 {
	var ms runtime.MemStats
	deltas := make([]uint64, 41)
	for i := range deltas {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		f()
		runtime.ReadMemStats(&ms)
		deltas[i] = ms.TotalAlloc - before
	}
	slices.Sort(deltas)
	return deltas[len(deltas)/2]
}

// A buffer fresh from selPool holds a nil slice; an empty take of it
// must still be a non-nil selection, or Filter would read an empty
// sorted run as every row.
func TestSelBufTakeNeverNil(t *testing.T) {
	b := selBuf{p: new(bat.SelectionVector)}
	if b.take(0) == nil {
		t.Fatal("take(0) of a fresh buffer is nil")
	}
}
