package algebra

import (
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/bat"
	"repro/internal/catalog"
)

// Differential suite for the raw-speed kernel pass: every typed
// branch-free kernel is compared against a boxed reference
// implementation with the pre-rewrite semantics — interface-valued
// scans that skip nil sentinels, map[any]-backed joins and dedup (so
// float NaN never matches a probe but IS retained as a distinct key),
// first-occurrence group ids. Inputs are randomized over every vector
// kind, with nil sentinels mixed in and sorted variants to force the
// binary-search fast paths.

// --- boxed reference kernels ----------------------------------------------

func isNilAny(v any) bool {
	switch x := v.(type) {
	case int64:
		return x == bat.NilInt
	case float64:
		return math.IsNaN(x)
	case string:
		return x == bat.NilStr
	case bat.Date:
		return x == bat.NilDate
	case bat.Oid:
		return x == bat.NilOid
	}
	return false
}

// refSelect is the seed scan: skip nils, then Cmp-based bound checks.
func refSelect(b *bat.BAT, lo, hi any, incLo, incHi bool) []int {
	var idx []int
	for i := 0; i < b.Len(); i++ {
		v := b.Tail.Get(i)
		if isNilAny(v) {
			continue
		}
		if lo != nil {
			c := Cmp(v, lo)
			if incLo && c < 0 || !incLo && c <= 0 {
				continue
			}
		}
		if hi != nil {
			c := Cmp(v, hi)
			if incHi && c > 0 || !incHi && c >= 0 {
				continue
			}
		}
		idx = append(idx, i)
	}
	return idx
}

// refUselect is boxed equality — any(NaN) == any(NaN) is false, so
// float nils match nothing, and other nil sentinels match themselves.
func refUselect(b *bat.BAT, v any) []int {
	var idx []int
	for i := 0; i < b.Len(); i++ {
		if b.Tail.Get(i) == v {
			idx = append(idx, i)
		}
	}
	return idx
}

func refSelectNotNil(b *bat.BAT) []int {
	var idx []int
	for i := 0; i < b.Len(); i++ {
		if !isNilAny(b.Tail.Get(i)) {
			idx = append(idx, i)
		}
	}
	return idx
}

// refLike is a regexp LIKE ('%' any run, '_' any byte); nil strings
// match neither LIKE nor NOT LIKE.
func refLike(b *bat.BAT, pattern string, want bool) []int {
	var re strings.Builder
	re.WriteString("^(?s)")
	for i := 0; i < len(pattern); i++ {
		switch c := pattern[i]; c {
		case '%':
			re.WriteString(".*")
		case '_':
			re.WriteString(".")
		default:
			re.WriteString(regexp.QuoteMeta(string(c)))
		}
	}
	re.WriteString("$")
	rx := regexp.MustCompile(re.String())
	var idx []int
	for i := 0; i < b.Len(); i++ {
		if v := b.Tail.Get(i).(string); v != bat.NilStr && rx.MatchString(v) == want {
			idx = append(idx, i)
		}
	}
	return idx
}

// refJoin is the nested-loop reference for the hash join: l order
// outer, r order inner, boxed equality (NaN matches nothing).
func refJoin(l, r *bat.BAT) (li, ri []int) {
	for i := 0; i < l.Len(); i++ {
		lv := l.Tail.Get(i)
		if fv, ok := lv.(float64); ok && math.IsNaN(fv) {
			continue
		}
		for j := 0; j < r.Len(); j++ {
			if r.Head.Get(j) == lv {
				li = append(li, i)
				ri = append(ri, j)
			}
		}
	}
	return li, ri
}

func refSemijoin(l, r *bat.BAT) []int {
	set := map[bat.Oid]bool{}
	for j := 0; j < r.Len(); j++ {
		set[bat.OidAt(r.Head, j)] = true
	}
	var idx []int
	for i := 0; i < l.Len(); i++ {
		if set[bat.OidAt(l.Head, i)] {
			idx = append(idx, i)
		}
	}
	return idx
}

func refAntiSemijoin(l, r *bat.BAT) []int {
	set := map[bat.Oid]bool{}
	for j := 0; j < r.Len(); j++ {
		set[bat.OidAt(r.Head, j)] = true
	}
	var idx []int
	for i := 0; i < l.Len(); i++ {
		if !set[bat.OidAt(l.Head, i)] {
			idx = append(idx, i)
		}
	}
	return idx
}

// refKUnique keeps first occurrences keyed on map[any] — NaN heads are
// stored but never found again, so every NaN row survives as distinct.
func refKUnique(b *bat.BAT) []int {
	seen := map[any]bool{}
	var idx []int
	for i := 0; i < b.Len(); i++ {
		k := b.Head.Get(i)
		if seen[k] {
			continue
		}
		seen[k] = true
		idx = append(idx, i)
	}
	return idx
}

// refGroupNew assigns first-occurrence group ids via map[any]; NaN
// misses every lookup and opens a fresh group per row.
func refGroupNew(b *bat.BAT) (grp []int, ngroups int) {
	m := map[any]int{}
	grp = make([]int, b.Len())
	for i := 0; i < b.Len(); i++ {
		k := b.Tail.Get(i)
		if id, ok := m[k]; ok {
			grp[i] = id
			continue
		}
		id := ngroups
		ngroups++
		m[k] = id
		grp[i] = id
	}
	return grp, ngroups
}

// --- randomized input construction ----------------------------------------

// randVector builds a random vector of the given kind with ~10% nil
// sentinels. Returned with the matching sortedness when asked. Sorted
// float and string vectors carry no nils: their sentinels (NaN,
// "\x00") don't occupy an end of the sort order, and the sorted
// binary-search path intentionally keeps the seed's boxed-Cmp
// behaviour of including in-range sentinels, which the nil-skipping
// scan reference doesn't model.
func randVector(rng *rand.Rand, kind bat.Kind, n int, sorted bool) bat.Vector {
	switch kind {
	case bat.KInt:
		v := make([]int64, n)
		for i := range v {
			if rng.Intn(10) == 0 {
				v[i] = bat.NilInt
			} else {
				v[i] = int64(rng.Intn(40))
			}
		}
		if sorted {
			sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
		}
		return bat.NewInts(v)
	case bat.KFloat:
		v := make([]float64, n)
		for i := range v {
			if !sorted && rng.Intn(10) == 0 {
				v[i] = bat.NilFloat()
			} else {
				v[i] = float64(rng.Intn(40)) / 2
			}
		}
		if sorted {
			sort.Float64s(v)
		}
		return bat.NewFloats(v)
	case bat.KDate:
		v := make([]bat.Date, n)
		for i := range v {
			if rng.Intn(10) == 0 {
				v[i] = bat.NilDate
			} else {
				v[i] = bat.Date(rng.Intn(400))
			}
		}
		if sorted {
			sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
		}
		return bat.NewDates(v)
	case bat.KStr:
		words := []string{"", "a", "ab", "abc", "b", "ba", "zz", bat.NilStr}
		if sorted {
			words = words[:len(words)-1]
		}
		v := make([]string, n)
		for i := range v {
			v[i] = words[rng.Intn(len(words))]
		}
		if sorted {
			sort.Strings(v)
		}
		return bat.NewStrings(v)
	case bat.KOid:
		v := make([]bat.Oid, n)
		for i := range v {
			if rng.Intn(10) == 0 {
				v[i] = bat.NilOid
			} else {
				v[i] = bat.Oid(rng.Intn(40))
			}
		}
		if sorted {
			sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
		}
		return bat.NewOids(v)
	case bat.KBool:
		v := make([]bool, n)
		for i := range v {
			v[i] = rng.Intn(2) == 0
		}
		if sorted {
			sort.Slice(v, func(i, j int) bool { return !v[i] && v[j] })
		}
		return bat.NewBools(v)
	}
	panic("unsupported kind")
}

// randBound draws a bound value of the kind (possibly nil = open).
func randBound(rng *rand.Rand, kind bat.Kind) any {
	if rng.Intn(4) == 0 {
		return nil
	}
	switch kind {
	case bat.KInt:
		return int64(rng.Intn(44) - 2)
	case bat.KFloat:
		return float64(rng.Intn(44)-2) / 2
	case bat.KDate:
		return bat.Date(rng.Intn(440) - 20)
	case bat.KStr:
		return []string{"", "a", "ab", "b", "z"}[rng.Intn(5)]
	case bat.KOid:
		return bat.Oid(rng.Intn(44))
	case bat.KBool:
		return rng.Intn(2) == 0
	}
	panic("unsupported kind")
}

func headsOf(b *bat.BAT) []bat.Oid {
	h := make([]bat.Oid, b.Len())
	for i := range h {
		h[i] = bat.OidAt(b.Head, i)
	}
	return h
}

// valEq is boxed equality that treats two float nils (NaN) as equal.
func valEq(a, b any) bool {
	if fa, ok := a.(float64); ok {
		if fb, ok := b.(float64); ok && math.IsNaN(fa) && math.IsNaN(fb) {
			return true
		}
	}
	return a == b
}

// expectPairs asserts out contains exactly base's (head, tail) rows at
// the reference positions.
func expectPairs(t *testing.T, ctxt string, base, out *bat.BAT, idx []int) {
	t.Helper()
	if out.Len() != len(idx) {
		t.Fatalf("%s: got %d rows, want %d", ctxt, out.Len(), len(idx))
	}
	for k, i := range idx {
		if bat.OidAt(out.Head, k) != bat.OidAt(base.Head, i) {
			t.Fatalf("%s: row %d head = %v, want %v", ctxt, k, bat.OidAt(out.Head, k), bat.OidAt(base.Head, i))
		}
		if !valEq(out.Tail.Get(k), base.Tail.Get(i)) {
			t.Fatalf("%s: row %d tail = %v, want %v", ctxt, k, out.Tail.Get(k), base.Tail.Get(i))
		}
	}
	expectTruthfulFlags(t, ctxt, out)
}

// expectTruthfulFlags asserts out claims no head property its rows
// lack. Flags may be conservative, never wrong.
func expectTruthfulFlags(t *testing.T, ctxt string, out *bat.BAT) {
	t.Helper()
	h := headsOf(out)
	if out.HeadSorted && !slices.IsSorted(h) {
		t.Fatalf("%s: HeadSorted claimed but heads descend", ctxt)
	}
	if out.KeyUnique {
		seen := map[bat.Oid]bool{}
		for i, v := range h {
			if seen[v] {
				t.Fatalf("%s: KeyUnique claimed but head %v repeats at %d", ctxt, v, i)
			}
			seen[v] = true
		}
	}
}

var diffKinds = []bat.Kind{bat.KInt, bat.KFloat, bat.KDate, bat.KStr, bat.KOid, bat.KBool}

// --- differential tests ----------------------------------------------------

func TestSelectMatchesSeedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 400; trial++ {
		kind := diffKinds[rng.Intn(len(diffKinds))]
		sorted := rng.Intn(2) == 0
		n := rng.Intn(60) + 1
		b := bat.New(bat.NewDense(bat.Oid(rng.Intn(5)), n), randVector(rng, kind, n, sorted))
		b.TailSorted = sorted
		lo, hi := randBound(rng, kind), randBound(rng, kind)
		incLo, incHi := rng.Intn(2) == 0, rng.Intn(2) == 0
		got := Filter(b, inRange(lo, hi, incLo, incHi))
		want := refSelect(b, lo, hi, incLo, incHi)
		expectPairs(t, "select", b, got, want)
	}
}

func TestUselectMatchesSeedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 400; trial++ {
		kind := diffKinds[rng.Intn(len(diffKinds))]
		sorted := rng.Intn(2) == 0
		n := rng.Intn(60) + 1
		b := bat.New(bat.NewDense(0, n), randVector(rng, kind, n, sorted))
		b.TailSorted = sorted
		v := randBound(rng, kind)
		if v == nil {
			continue
		}
		got := Filter(b, equalTo(v))
		want := refUselect(b, v)
		if got.Len() != len(want) {
			t.Fatalf("uselect %v n=%d v=%v: got %d rows, want %d", kind, n, v, got.Len(), len(want))
		}
		for k, i := range want {
			if bat.OidAt(got.Head, k) != bat.OidAt(b.Head, i) {
				t.Fatalf("uselect row %d: head %v want %v", k, bat.OidAt(got.Head, k), bat.OidAt(b.Head, i))
			}
		}
		expectTruthfulFlags(t, "uselect", got)
	}
}

func TestSelectNotNilMatchesSeedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 200; trial++ {
		kind := diffKinds[rng.Intn(len(diffKinds))]
		n := rng.Intn(60) + 1
		b := bat.New(bat.NewDense(0, n), randVector(rng, kind, n, false))
		got := Filter(b, Pred{Kind: PredNotNil})
		want := refSelectNotNil(b)
		expectPairs(t, "selectNotNil", b, got, want)
	}
}

func TestLikeMatchesSeedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	patterns := []string{"%a%", "%b%", "a%", "%z", "_", "a_", "%", "", "ab"}
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(60) + 1
		b := bat.New(bat.NewDense(bat.Oid(rng.Intn(3)), n), randVector(rng, bat.KStr, n, false))
		pat := patterns[rng.Intn(len(patterns))]
		kind, want := PredLike, true
		if rng.Intn(2) == 0 {
			kind, want = PredNotLike, false
		}
		got := Filter(b, Pred{Kind: kind, Pattern: pat})
		expectPairs(t, fmt.Sprintf("like %q %v", pat, want), b, got, refLike(b, pat, want))
	}
}

func TestJoinMatchesSeedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 300; trial++ {
		// L: oid tail referencing R's head space; R head dense or
		// materialised oids (hash path) or value-typed (value join).
		mode := rng.Intn(3)
		ln, rn := rng.Intn(40)+1, rng.Intn(40)+1
		switch mode {
		case 0, 1:
			lt := make([]bat.Oid, ln)
			for i := range lt {
				lt[i] = bat.Oid(rng.Intn(rn + 10))
			}
			l := bat.New(bat.NewDense(0, ln), bat.NewOids(lt))
			var r *bat.BAT
			if mode == 0 {
				r = bat.New(bat.NewDense(0, rn), randVector(rng, bat.KInt, rn, false))
			} else {
				rh := make([]bat.Oid, rn)
				for i := range rh {
					rh[i] = bat.Oid(rng.Intn(rn + 10))
				}
				r = bat.New(bat.NewOids(rh), randVector(rng, bat.KInt, rn, false))
			}
			got := Join(l, r)
			li, ri := refJoin(l, r)
			if got.Len() != len(li) {
				t.Fatalf("join mode=%d: got %d rows, want %d", mode, got.Len(), len(li))
			}
			for k := range li {
				if bat.OidAt(got.Head, k) != bat.OidAt(l.Head, li[k]) {
					t.Fatalf("join row %d: head mismatch", k)
				}
				if !valEq(got.Tail.Get(k), r.Tail.Get(ri[k])) {
					t.Fatalf("join row %d: tail mismatch", k)
				}
			}
		default:
			// Value join: int-typed join column.
			kind := []bat.Kind{bat.KInt, bat.KFloat, bat.KStr, bat.KDate}[rng.Intn(4)]
			l := bat.New(bat.NewDense(0, ln), randVector(rng, kind, ln, false))
			r := bat.New(randVector(rng, kind, rn, false), randVector(rng, bat.KInt, rn, false))
			got := Join(l, r)
			li, ri := refJoin(l, r)
			if got.Len() != len(li) {
				t.Fatalf("value join %v: got %d rows, want %d", kind, got.Len(), len(li))
			}
			for k := range li {
				if bat.OidAt(got.Head, k) != bat.OidAt(l.Head, li[k]) {
					t.Fatalf("value join row %d: head mismatch", k)
				}
				if !valEq(got.Tail.Get(k), r.Tail.Get(ri[k])) {
					t.Fatalf("value join row %d: tail mismatch", k)
				}
			}
		}
	}
	// The shapes the oid bitmap tells apart, L's keys as its tail.
	for trial := 0; trial < 300; trial++ {
		family := trial % len(oidFamilies)
		keys, rh := oidFamilies[family](rng)
		l := bat.New(bat.NewDense(0, len(keys)), bat.NewOids(keys))
		r := bat.New(rh, randVector(rng, bat.KInt, rh.Len(), false))
		expectJoin(t, fmt.Sprintf("join family %d", family), l, r)
	}
	// A few keys, or none, against a large sorted unique R (the binary
	// search, or the gallop when the keys ascend), R ending in NilOid
	// now and then, keys hitting, missing and holding NilOid.
	for trial := 0; trial < 200; trial++ {
		dom := 200 + rng.Intn(3000)
		rh := sortedUniqueOids(rng, 100+rng.Intn(dom-100), dom)
		if trial%4 == 0 {
			rh = append(rh, bat.NilOid)
		}
		keys := make([]bat.Oid, rng.Intn(31))
		for i := range keys {
			keys[i] = bat.Oid(rng.Intn(dom + 10))
			if rng.Intn(12) == 0 {
				keys[i] = bat.NilOid
			}
		}
		if trial%2 == 0 {
			slices.Sort(keys)
		}
		l := bat.New(bat.NewDense(0, len(keys)), bat.NewOids(keys))
		r := bat.New(bat.NewOids(rh), randVector(rng, bat.KInt, len(rh), false))
		r.HeadSorted, r.KeyUnique = true, true
		expectJoin(t, fmt.Sprintf("sorted R trial %d", trial), l, r)
		// The same R against a dense L tail (a markT or reversed bind).
		dl := bat.New(bat.NewDense(0, len(keys)), bat.NewDense(bat.Oid(rng.Intn(dom)), len(keys)))
		expectJoin(t, fmt.Sprintf("sorted R trial %d, dense L tail", trial), dl, r)
	}
	joinIndexFamily(t, rng)
}

// expectJoin checks Join(l, r) against the nested-loop reference, row
// by row in L order.
func expectJoin(t *testing.T, ctxt string, l, r *bat.BAT) {
	t.Helper()
	got := Join(l, r)
	li, ri := refJoin(l, r)
	if got.Len() != len(li) {
		t.Fatalf("%s (|L| %d, |R| %d): got %d rows, want %d", ctxt, l.Len(), r.Len(), got.Len(), len(li))
	}
	for k := range li {
		if bat.OidAt(got.Head, k) != bat.OidAt(l.Head, li[k]) || got.Tail.Get(k) != r.Tail.Get(ri[k]) {
			t.Fatalf("%s row %d: (%v, %v), want (%v, %v)", ctxt, k, bat.OidAt(got.Head, k), got.Tail.Get(k), bat.OidAt(l.Head, li[k]), r.Tail.Get(ri[k]))
		}
	}
}

// joinIndexRs draws the R sides an FK join meets over a parent of np
// rows: a sorted unique selection, the same shuffled, one repeating
// oids, an empty one, every parent (materialised and dense), one
// holding NilOid beside a few parents, and the index reversed.
func joinIndexRs(rng *rand.Rand, np int, idx *bat.BAT) map[string]*bat.BAT {
	withTail := func(h bat.Vector) *bat.BAT { return bat.New(h, randVector(rng, bat.KInt, h.Len(), false)) }
	sel := sortedUniqueOids(rng, 1+rng.Intn(min(np, 12)), np)
	rs := map[string]*bat.BAT{}
	rs["sorted"] = withTail(bat.NewOids(sel))
	rs["sorted"].HeadSorted, rs["sorted"].KeyUnique = true, true
	shuffled := slices.Clone(sel)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	rs["unsorted"] = withTail(bat.NewOids(shuffled))
	dup := append(slices.Clone(shuffled), shuffled[rng.Intn(len(shuffled))], shuffled[0])
	rs["duplicate"] = withTail(bat.NewOids(dup))
	rs["empty"] = withTail(bat.NewOids(nil))
	all := make([]bat.Oid, np)
	for i := range all {
		all[i] = bat.Oid(i)
	}
	rs["full"] = withTail(bat.NewOids(all))
	rs["dense"] = withTail(bat.NewDense(0, np))
	rs["nil"] = withTail(bat.NewOids(append([]bat.Oid{bat.NilOid}, shuffled[:min(3, len(shuffled))]...)))
	rs["reversed"] = idx.Reverse()
	return rs
}

// joinIndexTables builds a parent of np keyed rows and a child of nc
// rows whose FK column names a parent key, or a missing one (a NilOid
// in the index) about one time in ten; the index is "c_fk_p".
func joinIndexTables(rng *rand.Rand, np, nc int) (*catalog.Catalog, *catalog.Table, *catalog.Table) {
	cat := catalog.New()
	parent := cat.CreateTable("sys", "p", []catalog.ColDef{{Name: "pk", Kind: bat.KInt}})
	prow := make([]catalog.Row, np)
	for i := range prow {
		prow[i] = catalog.Row{"pk": int64(1000 + i)}
	}
	parent.Append(prow)
	child := cat.CreateTable("sys", "c", []catalog.ColDef{{Name: "fk", Kind: bat.KInt}})
	child.Append(childRows(rng, np, nc))
	child.DefineJoinIndex("c_fk_p", "fk", parent, "pk")
	return cat, parent, child
}

func childRows(rng *rand.Rand, np, n int) []catalog.Row {
	rows := make([]catalog.Row, n)
	for i := range rows {
		fk := int64(1000 + rng.Intn(np))
		if rng.Intn(10) == 0 {
			fk = -1
		}
		rows[i] = catalog.Row{"fk": fk}
	}
	return rows
}

// joinIndexFamily is the catalog-bound join-index family of the join
// differential: L is sql.bindIdxbat's result, whose tail carries
// postings at a version without tombstones. It runs on a clean table,
// after an append (postings rebuilt for the new version; the pinned
// old version reads without them) and after a delete (no postings,
// not even for the version pinned before it),
// each L also reversed twice (the same tail), against every R shape of
// joinIndexRs.
func joinIndexFamily(t *testing.T, rng *rand.Rand) {
	t.Helper()
	for trial := 0; trial < 30; trial++ {
		np := 20 + rng.Intn(150)
		cat, _, child := joinIndexTables(rng, np, np+rng.Intn(4*np))
		bindAt := func() (catalog.Snapshot, *bat.BAT) {
			s, _ := cat.Pin("sys.c")
			return s, child.BindIdxAt(s, "c_fk_p")
		}
		check := func(stage string, l *bat.BAT, wantPostings bool) {
			t.Helper()
			if has := l.Tail.(*bat.Oids).Postings() != nil; has != wantPostings {
				t.Fatalf("trial %d %s: postings attached %v, want %v", trial, stage, has, wantPostings)
			}
			for name, r := range joinIndexRs(rng, np, l) {
				ctxt := fmt.Sprintf("trial %d %s R %s", trial, stage, name)
				expectJoin(t, ctxt, l, r)
				expectJoin(t, ctxt+" reversed twice", l.Reverse().Reverse(), r)
			}
		}
		s0, clean := bindAt()
		check("clean", clean, true)
		child.Append(childRows(rng, np, 1+rng.Intn(np)))
		s1, appended := bindAt()
		check("after append", appended, true)
		if appended.Tail.(*bat.Oids).Postings() == clean.Tail.(*bat.Oids).Postings() {
			t.Fatalf("trial %d: the appended version reuses the old version's postings", trial)
		}
		check("pinned before the append", child.BindIdxAt(s0, "c_fk_p"), false)
		dead := make([]bat.Oid, 1+rng.Intn(10))
		for i := range dead {
			dead[i] = bat.Oid(rng.Intn(appended.Len()))
		}
		child.Delete(dead)
		_, deleted := bindAt()
		check("after delete", deleted, false)
		// The delete released the cached postings, so the version
		// pinned before it binds without them.
		check("pinned before the delete", child.BindIdxAt(s1, "c_fk_p"), false)
	}
}

// oidFamilies draw probe keys and an R head for each shape the oid
// bitmap tells apart. Keys come from R's oids about half the time.
var oidFamilies = []func(*rand.Rand) (keys []bat.Oid, rh bat.Vector){
	// Foreign key: up to 3 000 keys over a domain of up to 10 000 oids,
	// R at most 2 % of it. Few keys cannot pay for the domain's words,
	// so those trials take the table.
	func(rng *rand.Rand) ([]bat.Oid, bat.Vector) {
		dom := 100 + rng.Intn(10_000)
		rv := make([]bat.Oid, 1+rng.Intn(dom/50))
		for i, v := range rng.Perm(dom)[:len(rv)] {
			rv[i] = bat.Oid(v)
		}
		keys := make([]bat.Oid, 1+rng.Intn(1+rng.Intn(3000)))
		for i := range keys {
			keys[i] = bat.Oid(rng.Intn(dom))
		}
		return keys, bat.NewOids(rv)
	},
	// Spread: R's oids 2^20 apart above 2^40, so no bitmap fits and
	// the table answers; misses land one oid off a member.
	func(rng *rand.Rand) ([]bat.Oid, bat.Vector) {
		spread := func() bat.Oid { return 1<<40 + bat.Oid(rng.Intn(64))<<20 }
		return drawKeys(rng, spread, func(v bat.Oid) bat.Oid { return v + 1 })
	},
	// Nil: NilOid among R's heads and the keys, R usually holding oid
	// 0 as well, where the span would wrap to zero.
	func(rng *rand.Rand) ([]bat.Oid, bat.Vector) {
		keys, rh := drawKeys(rng, func() bat.Oid {
			if rng.Intn(4) == 0 {
				return bat.NilOid
			}
			return bat.Oid(rng.Intn(20))
		}, func(v bat.Oid) bat.Oid { return v + 1 })
		if rv := rh.(*bat.Oids).V; len(rv) > 0 && rng.Intn(4) != 0 {
			rv[0] = 0
		}
		return keys, rh
	},
	// Duplicates and empty: R repeats a handful of oids, or, one time
	// in four, has none.
	func(rng *rand.Rand) ([]bat.Oid, bat.Vector) {
		keys, rh := drawKeys(rng, func() bat.Oid { return 100 + bat.Oid(rng.Intn(6)) }, func(v bat.Oid) bat.Oid { return v - 6 })
		if rng.Intn(4) == 0 {
			rh = bat.NewOids(nil)
		}
		return keys, rh
	},
	// Dense R: its range, keys around and inside it, and NilOid.
	func(rng *rand.Rand) ([]bat.Oid, bat.Vector) {
		keys := make([]bat.Oid, 1+rng.Intn(60))
		for i := range keys {
			keys[i] = bat.Oid(rng.Intn(100))
			if rng.Intn(10) == 0 {
				keys[i] = bat.NilOid
			}
		}
		return keys, bat.NewDense(bat.Oid(rng.Intn(50)), rng.Intn(40))
	},
}

// drawKeys draws an R of 0–30 oids from draw and up to 60 keys, each a
// member of R or, from a draw, miss(draw()).
func drawKeys(rng *rand.Rand, draw func() bat.Oid, miss func(bat.Oid) bat.Oid) ([]bat.Oid, bat.Vector) {
	rv := make([]bat.Oid, rng.Intn(31))
	for i := range rv {
		rv[i] = draw()
	}
	keys := make([]bat.Oid, 1+rng.Intn(60))
	for i := range keys {
		if len(rv) > 0 && rng.Intn(2) == 0 {
			keys[i] = rv[rng.Intn(len(rv))]
		} else {
			keys[i] = miss(draw())
		}
	}
	return keys, bat.NewOids(rv)
}

func TestSemijoinMatchesSeedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 800; trial++ {
		// Sides from empty to 50 rows; every fourth trial up to a few
		// thousand, so galloping steps cross several powers of two.
		maxN := 50
		if trial%4 == 0 {
			maxN = 3000
		}
		ln, rn := rng.Intn(maxN+1), rng.Intn(maxN+1)
		// L head: dense, sorted-unique oids, or arbitrary oids. dom
		// bounds L's oids, so R can overlap it or lie beyond it.
		var l *bat.BAT
		dom := 4*ln + 8
		switch rng.Intn(3) {
		case 0:
			l = bat.New(bat.NewDense(bat.Oid(rng.Intn(4)), ln), randVector(rng, bat.KInt, ln, false))
			dom = ln + 4
		case 1:
			l = bat.New(bat.NewOids(sortedUniqueOids(rng, ln, dom)), randVector(rng, bat.KInt, ln, false))
			l.HeadSorted, l.KeyUnique = true, true
		default:
			dom = 30 + ln/2
			h := make([]bat.Oid, ln)
			for i := range h {
				h[i] = bat.Oid(rng.Intn(dom))
			}
			l = bat.New(bat.NewOids(h), randVector(rng, bat.KInt, ln, false))
		}
		// R's oids: drawn over L's range, a subset of L's heads (with
		// repeats), or a disjoint range above L.
		rh := make([]bat.Oid, rn)
		for i := range rh {
			switch {
			case trial%3 == 1 && ln > 0:
				rh[i] = bat.OidAt(l.Head, rng.Intn(ln))
			case trial%3 == 2:
				rh[i] = bat.Oid(dom + rng.Intn(dom))
			default:
				rh[i] = bat.Oid(rng.Intn(dom))
			}
		}
		// R's shape: as drawn, sorted with duplicates, sorted-unique,
		// or dense; each flagged as it is.
		var r *bat.BAT
		switch rng.Intn(4) {
		case 0:
			r = bat.New(bat.NewOids(rh), randVector(rng, bat.KInt, rn, false))
		case 1:
			slices.Sort(rh)
			r = bat.New(bat.NewOids(rh), randVector(rng, bat.KInt, rn, false))
			r.HeadSorted = true
		case 2:
			slices.Sort(rh)
			rh = slices.Compact(rh)
			r = bat.New(bat.NewOids(rh), randVector(rng, bat.KInt, len(rh), false))
			r.HeadSorted, r.KeyUnique = true, true
		default:
			start := rng.Intn(dom)
			if trial%3 == 2 {
				start += dom
			}
			r = bat.New(bat.NewDense(bat.Oid(start), rn), randVector(rng, bat.KInt, rn, false))
		}

		if trial%5 == 0 && ln > 0 {
			// The uselect shape: L's tail is its head.
			hv := bat.NewOids(bat.MaterialiseOids(l.Head))
			u := bat.New(hv, hv.Slice(0, ln))
			u.HeadSorted, u.KeyUnique = l.HeadSorted, l.KeyUnique
			l = u
		}
		got := Semijoin(l, r)
		want := refSemijoin(l, r)
		expectPairs(t, "semijoin", l, got, want)
		expectFlags(t, "semijoin", l, got)
		if ownTail(l) && (!ownTail(got) || !ownTail(AntiSemijoin(l, r))) {
			t.Fatalf("semijoin trial %d: a uselect-shaped L lost its shape", trial)
		}

		gotAnti := AntiSemijoin(l, r)
		wantAnti := refAntiSemijoin(l, r)
		expectPairs(t, "antisemijoin", l, gotAnti, wantAnti)
		expectFlags(t, "antisemijoin", l, gotAnti)
	}
	// The shapes the oid bitmap tells apart, L's keys as its unsorted
	// head, so the membership path runs.
	for trial := 0; trial < 400; trial++ {
		family := trial % len(oidFamilies)
		keys, rh := oidFamilies[family](rng)
		l := bat.New(bat.NewOids(keys), randVector(rng, bat.KInt, len(keys), false))
		r := bat.New(rh, randVector(rng, bat.KInt, rh.Len(), false))
		ctxt := fmt.Sprintf("family %d (|L| %d, |R| %d)", family, l.Len(), r.Len())
		expectPairs(t, "semijoin "+ctxt, l, Semijoin(l, r), refSemijoin(l, r))
		expectPairs(t, "antisemijoin "+ctxt, l, AntiSemijoin(l, r), refAntiSemijoin(l, r))
	}
	// Dense sorted-sorted: two sorted selections of one column at
	// densities from 1/64 to all rows, R repeating oids one time in
	// three, so both the gallop and the bitmap answer.
	var strategies [2]int
	for trial := 0; trial < 300; trial++ {
		dom := 1 + rng.Intn(5000)
		pick := func() []bat.Oid {
			p := 1 / float64(int(1)<<rng.Intn(7))
			var v []bat.Oid
			for i := 0; i < dom; i++ {
				if rng.Float64() < p {
					v = append(v, bat.Oid(i))
				}
			}
			return v
		}
		lh, rh := pick(), pick()
		if trial%3 == 0 && len(rh) > 0 {
			rh = append(rh, rh[rng.Intn(len(rh))])
			slices.Sort(rh)
		}
		l := bat.New(bat.NewOids(lh), randVector(rng, bat.KInt, len(lh), false))
		l.HeadSorted, l.KeyUnique = true, true
		r := bat.New(bat.NewOids(rh), randVector(rng, bat.KInt, len(rh), false))
		r.HeadSorted = true
		if len(lh) > 0 && len(rh) > 0 {
			if gallopPays(len(lh), len(rh)) {
				strategies[0]++
			} else {
				strategies[1]++
			}
		}
		ctxt := fmt.Sprintf("dense sorted trial %d (|L| %d, |R| %d)", trial, l.Len(), r.Len())
		got := Semijoin(l, r)
		expectPairs(t, ctxt, l, got, refSemijoin(l, r))
		expectFlags(t, ctxt, l, got)
	}
	if strategies[0] == 0 || strategies[1] == 0 {
		t.Fatalf("dense sorted semijoins galloped %d times and probed the bitmap %d times; both must run", strategies[0], strategies[1])
	}
}

// sortedUniqueOids draws n distinct oids below dom, ascending.
func sortedUniqueOids(rng *rand.Rand, n, dom int) []bat.Oid {
	h := make([]bat.Oid, n)
	for i, v := range rng.Perm(dom)[:n] {
		h[i] = bat.Oid(v)
	}
	slices.Sort(h)
	return h
}

// expectFlags checks that a semijoin result keeps L's head order and
// key flags.
func expectFlags(t *testing.T, ctxt string, l, out *bat.BAT) {
	t.Helper()
	if out.HeadSorted != l.HeadSorted || out.KeyUnique != l.KeyUnique {
		t.Fatalf("%s: flags (sorted %v, unique %v), want (%v, %v)", ctxt, out.HeadSorted, out.KeyUnique, l.HeadSorted, l.KeyUnique)
	}
}

func TestKUniqueMatchesSeedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for trial := 0; trial < 300; trial++ {
		kind := diffKinds[rng.Intn(len(diffKinds))]
		n := rng.Intn(60) + 1
		b := bat.New(randVector(rng, kind, n, false), bat.NewDense(0, n))
		got := KUnique(b)
		want := refKUnique(b)
		if got.Len() != len(want) {
			t.Fatalf("kunique %v n=%d: got %d rows, want %d", kind, n, got.Len(), len(want))
		}
		for k, i := range want {
			if !valEq(got.Head.Get(k), b.Head.Get(i)) {
				t.Fatalf("kunique row %d: head %v want %v", k, got.Head.Get(k), b.Head.Get(i))
			}
			if !valEq(got.Tail.Get(k), b.Tail.Get(i)) {
				t.Fatalf("kunique row %d: tail mismatch", k)
			}
		}
		if !got.KeyUnique {
			t.Fatal("kunique result must set KeyUnique")
		}
	}
}

func TestGroupNewMatchesSeedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 300; trial++ {
		kind := diffKinds[rng.Intn(len(diffKinds))]
		n := rng.Intn(60) + 1
		b := bat.New(bat.NewDense(0, n), randVector(rng, kind, n, false))
		g := GroupNew(b)
		want, ng := refGroupNew(b)
		if g.NGroups != ng {
			t.Fatalf("group %v n=%d: ngroups %d want %d", kind, n, g.NGroups, ng)
		}
		ids := g.Grp.Tail.(*bat.Oids).V
		for i := range want {
			if int(ids[i]) != want[i] {
				t.Fatalf("group %v row %d: id %d want %d", kind, i, ids[i], want[i])
			}
		}
		// Derive against a second random column and cross-check with a
		// composite-key reference.
		kind2 := diffKinds[rng.Intn(len(diffKinds))]
		b2 := bat.New(bat.NewDense(0, n), randVector(rng, kind2, n, false))
		d := GroupDerive(g, b2)
		type ck struct {
			g int
			v any
		}
		m := map[ck]int{}
		nref := 0
		for i := 0; i < n; i++ {
			k := ck{want[i], b2.Tail.Get(i)}
			id, ok := m[k]
			if !ok {
				id = nref
				nref++
				m[k] = id
			}
			if int(d.Grp.Tail.(*bat.Oids).V[i]) != id {
				t.Fatalf("derive row %d: id %d want %d", i, d.Grp.Tail.(*bat.Oids).V[i], id)
			}
		}
		if d.NGroups != nref {
			t.Fatalf("derive ngroups %d want %d", d.NGroups, nref)
		}
	}
}
