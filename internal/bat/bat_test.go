package bat

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestDenseOids(t *testing.T) {
	d := NewDense(10, 5)
	if d.Len() != 5 {
		t.Fatalf("len = %d, want 5", d.Len())
	}
	if d.At(0) != 10 || d.At(4) != 14 {
		t.Fatalf("At out of sequence: %d %d", d.At(0), d.At(4))
	}
	s := d.Slice(1, 4).(*DenseOids)
	if s.Start != 11 || s.N != 3 {
		t.Fatalf("slice = %+v, want start=11 n=3", s)
	}
	if d.ByteSize() != 16 {
		t.Fatalf("dense ByteSize = %d, want descriptor-only 16", d.ByteSize())
	}
}

func TestVectorSliceSharesStorage(t *testing.T) {
	v := NewInts([]int64{1, 2, 3, 4})
	s := v.Slice(1, 3).(*Ints)
	s.V[0] = 99
	if v.V[1] != 99 {
		t.Fatal("slice does not share storage")
	}
	if s.ByteSize() != viewOverhead {
		t.Fatalf("view ByteSize = %d, want overhead %d", s.ByteSize(), viewOverhead)
	}
}

// TestStringsByteSize pins the charge: 4 bytes a code, plus the
// dictionary only for the vector it was built for.
func TestStringsByteSize(t *testing.T) {
	v := NewStrings([]string{"ab", "cde", "ab"})
	want := int64(3*4) + int64(16+2) + int64(16+3)
	if v.ByteSize() != want {
		t.Fatalf("ByteSize = %d, want %d", v.ByteSize(), want)
	}
	if g := GatherVectorSel(v, SelectionVector{2, 1}); g.ByteSize() != 2*4 {
		t.Fatalf("a gather charged %d, want its codes only (8)", g.ByteSize())
	}
	if e := Extend(v, NewStrings([]string{"f"})).(*Strings); e.D != v.D || e.At(3) != "f" || v.D.Len() != 3 {
		t.Fatalf("extend: dict shared %v, value %q, dict len %d", e.D == v.D, e.At(3), v.D.Len())
	}
}

func TestBATViewsZeroCost(t *testing.T) {
	b := NewDenseHead(NewInts([]int64{5, 6, 7}))
	r := b.Reverse()
	if r.Head.Kind() != KInt || r.Tail.Kind() != KOid {
		t.Fatal("reverse did not swap columns")
	}
	m := b.Mirror()
	if m.Tail.Kind() != KOid || m.Tail.Get(2) != Oid(2) {
		t.Fatalf("mirror tail = %v", m.Tail.Get(2))
	}
	mk := b.MarkT(100)
	if mk.Tail.(*DenseOids).Start != 100 || mk.Len() != 3 {
		t.Fatal("markT wrong")
	}
	// Views over the same base must attribute near-zero extra memory.
	if r.ByteSize() > b.ByteSize() {
		t.Fatalf("reverse view costs %d > base %d", r.ByteSize(), b.ByteSize())
	}
}

func TestGatherAndSortByHead(t *testing.T) {
	b := New(NewOids([]Oid{3, 1, 2}), NewStrings([]string{"c", "a", "b"}))
	s := b.SortByHead()
	if !s.HeadSorted {
		t.Fatal("SortByHead did not set HeadSorted")
	}
	for i, want := range []string{"a", "b", "c"} {
		if s.Tail.Get(i) != want {
			t.Fatalf("row %d tail = %v, want %s", i, s.Tail.Get(i), want)
		}
	}
	if OidAt(s.Head, 0) != 1 || OidAt(s.Head, 2) != 3 {
		t.Fatal("head not sorted")
	}
	// Sorting an already sorted BAT returns the receiver.
	if s.SortByHead() != s {
		t.Fatal("SortByHead of sorted BAT should be identity")
	}
}

func TestAppend(t *testing.T) {
	a := New(NewOids([]Oid{0, 1}), NewInts([]int64{10, 11}))
	a.HeadSorted = true
	b := New(NewOids([]Oid{2}), NewInts([]int64{12}))
	b.HeadSorted = true
	c := Append(a, b)
	if c.Len() != 3 || !c.HeadSorted {
		t.Fatalf("append len=%d sorted=%v", c.Len(), c.HeadSorted)
	}
	if Append(a, New(NewOids(nil), NewInts(nil))) != a {
		t.Fatal("append with empty should be identity")
	}
}

func TestAppendVectorsDense(t *testing.T) {
	a := NewDense(0, 3)
	b := NewOids([]Oid{9})
	out := AppendVectors(a, b).(*Oids)
	want := []Oid{0, 1, 2, 9}
	for i, w := range want {
		if out.V[i] != w {
			t.Fatalf("out[%d]=%d want %d", i, out.V[i], w)
		}
	}
}

// TestExtendKeepsPublishedHeaders pins the storage contract: Extend
// writes past the published length where there is room, moves the
// storage with a bounded step where there is not, never changes the
// header it was given, and a view owns no room.
func TestExtendKeepsPublishedHeaders(t *testing.T) {
	v0 := NewInts([]int64{1, 2, 3}) // no room: the first extension moves
	v1 := Extend(v0, NewInts([]int64{4})).(*Ints)
	if &v1.V[0] == &v0.V[0] || len(v0.V) != 3 || cap(v1.V) != growCap(4) {
		t.Fatalf("extension without room: len %d cap %d", len(v0.V), cap(v1.V))
	}
	big := NewInts(make([]int64, 1600))
	moved := Extend(big, NewInts([]int64{7})).(*Ints)
	if room := cap(moved.V) - len(moved.V); room != 100 {
		t.Fatalf("growth step left %d slots of room for 1601 rows, want 100", room)
	}
	v2 := Extend(moved, NewInts([]int64{8, 9})).(*Ints)
	if &v2.V[0] != &moved.V[0] {
		t.Fatal("extension with room moved the storage")
	}
	if len(moved.V) != 1601 || moved.V[1600] != 7 || v2.V[1601] != 8 || v2.V[1602] != 9 {
		t.Fatalf("published header disturbed: len %d", len(moved.V))
	}
	view := v2.Slice(0, 1601)
	v3 := Extend(view, NewInts([]int64{-1})).(*Ints)
	if &v3.V[0] == &v2.V[0] || v2.V[1601] != 8 {
		t.Fatal("extending a view wrote into its source's room")
	}
	if v3.ByteSize() != int64(len(v3.V))*8 {
		t.Fatal("a moved extension is accounted as a view")
	}

	heads := Extend(NewOids([]Oid{0, 1}), NewDense(5, 2)).(*Oids)
	if len(heads.V) != 4 || heads.V[2] != 5 || heads.V[3] != 6 {
		t.Fatalf("oids extended by a dense run: %v", heads.V)
	}
	a := New(NewOids([]Oid{0, 4}), NewInts([]int64{10, 40}))
	a.HeadSorted = true
	if out := a.Extend(New(NewDense(9, 1), NewInts([]int64{90}))); out.Len() != 3 || !out.HeadSorted || a.Len() != 2 {
		t.Fatalf("BAT extend: %s", out.Dump(0))
	}
	if out := a.Extend(New(NewDense(2, 1), NewInts([]int64{20}))); out.HeadSorted {
		t.Fatal("an out-of-order extension kept the sorted flag")
	}
}

func TestDrop(t *testing.T) {
	v := NewStrings([]string{"a", "b", "c", "d", "e"})
	for _, c := range []struct {
		pos  []int
		want string
	}{
		{nil, "abcde"}, {[]int{0}, "bcde"}, {[]int{4}, "abcd"}, {[]int{1, 2}, "ade"}, {[]int{0, 2, 4}, "bd"}, {[]int{0, 1, 2, 3, 4}, ""},
	} {
		got := Drop(v, c.pos).(*Strings).Decode()
		if strings.Join(got, "") != c.want {
			t.Fatalf("Drop %v = %v, want %q", c.pos, got, c.want)
		}
	}
	// Positions may be oids (a column's dead slots are its dead oids),
	// and a dense vector is dropped without being materialised first.
	live := Drop(NewDense(10, 5), []Oid{1, 3}).(*Oids)
	if len(live.V) != 3 || live.V[0] != 10 || live.V[1] != 12 || live.V[2] != 14 {
		t.Fatalf("Drop on dense: %v", live.V)
	}
	if v.Len() != 5 || v.At(1) != "b" {
		t.Fatal("Drop changed its input")
	}
}

// TestOidBitmap pins the bitmap's membership and when it is built: a
// span of at most 64·maxWords oids, never past it, never over a head
// holding NilOid, and free of words for a dense head.
func TestOidBitmap(t *testing.T) {
	has := func(m *OidBitmap, vs ...Oid) []bool {
		out := make([]bool, len(vs))
		for i, v := range vs {
			out[i] = m.Has(v)
		}
		return out
	}
	if NewOidBitmap(NewOids([]Oid{70, 7, 70, 133}), false, 1) != nil {
		t.Fatal("a 127-oid span was built within 1 word")
	}
	m := NewOidBitmap(NewOids([]Oid{70, 7, 70, 133}), false, 2)
	if m == nil {
		t.Fatal("a 127-oid span was refused with maxWords 2")
	}
	if got, want := has(m, 0, 6, 7, 8, 70, 133, 134, 1<<40, NilOid), []bool{false, false, true, false, true, true, false, false, false}; !slices.Equal(got, want) {
		t.Fatalf("membership %v, want %v", got, want)
	}
	if m.words == nil || len(m.words) != 2 {
		t.Fatalf("127-oid span holds %d words, want 2", len(m.words))
	}
	if s := NewOidBitmap(NewOids([]Oid{7, 70, 70, 133}), true, 2); s == nil || !slices.Equal(s.words, m.words) || s.lo != m.lo || s.n != m.n {
		t.Fatal("a sorted head's ends must bound the same bitmap")
	}
	if NewOidBitmap(NewOids([]Oid{0, 5, NilOid}), true, 1<<20) != nil {
		t.Fatal("a sorted head ending in NilOid got a bitmap")
	}
	if NewOidBitmap(NewOids([]Oid{0, 128}), false, 2) != nil {
		t.Fatal("a 129-oid span was built within 2 words")
	}
	if NewOidBitmap(NewOids([]Oid{0, 127}), false, 2) == nil {
		t.Fatal("a 128-oid span was refused with maxWords 2")
	}
	if NewOidBitmap(NewOids([]Oid{0, NilOid}), false, 1<<20) != nil || NewOidBitmap(NewOids([]Oid{NilOid}), false, 1<<20) != nil {
		t.Fatal("a head holding NilOid got a bitmap")
	}
	d := NewOidBitmap(NewDense(10, 5), false, 0)
	if d == nil || d.words != nil {
		t.Fatal("a dense head must be its range, with no words")
	}
	if got, want := has(d, 9, 10, 14, 15), []bool{false, true, true, false}; !slices.Equal(got, want) {
		t.Fatalf("dense membership %v, want %v", got, want)
	}
	if e := NewOidBitmap(NewOids(nil), false, 0); e == nil || e.Has(0) || e.Has(NilOid) {
		t.Fatal("an empty head must be an empty bitmap")
	}
	// Released words go back to a pool, and the next bitmap borrows
	// them cleared. The sorted head skips two of its four words.
	for i := 0; i < 4; i++ {
		a := NewOidBitmap(NewOids([]Oid{100, 101, 163, 300}), true, 4)
		if got, want := has(a, 99, 100, 101, 102, 163, 164, 299, 300), []bool{false, true, true, false, true, false, false, true}; !slices.Equal(got, want) {
			t.Fatalf("sorted membership %v, want %v", got, want)
		}
		a.Release()
		if a.Has(100) {
			t.Fatal("a released bitmap still holds members")
		}
		b := NewOidBitmap(NewOids([]Oid{300, 100}), false, 4)
		if got, want := has(b, 100, 101, 163, 300), []bool{true, false, false, true}; !slices.Equal(got, want) {
			t.Fatalf("membership after reuse %v, want %v", got, want)
		}
		b.Release()
	}
}

func TestKindStringAndElemSize(t *testing.T) {
	cases := map[Kind]string{KOid: ":oid", KInt: ":int", KFloat: ":dbl", KStr: ":str", KDate: ":date", KBool: ":bit"}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
		if k.ElemSize() <= 0 {
			t.Errorf("Kind(%d).ElemSize() = %d", k, k.ElemSize())
		}
	}
}

func TestEmptyVectorAllKinds(t *testing.T) {
	for _, k := range []Kind{KOid, KInt, KFloat, KStr, KDate, KBool} {
		v := EmptyVector(k)
		if v.Len() != 0 || v.Kind() != k {
			t.Errorf("EmptyVector(%v) wrong: len=%d kind=%v", k, v.Len(), v.Kind())
		}
	}
}

// Property: SortByHead is a permutation that leaves the (head, tail)
// pairing intact.
func TestSortByHeadIsPermutation(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		size := int(n%50) + 1
		heads := make([]Oid, size)
		tails := make([]int64, size)
		pair := make(map[Oid]map[int64]int)
		for i := range heads {
			heads[i] = Oid(rng.Intn(20))
			tails[i] = int64(rng.Intn(100))
			if pair[heads[i]] == nil {
				pair[heads[i]] = map[int64]int{}
			}
			pair[heads[i]][tails[i]]++
		}
		b := New(NewOids(heads), NewInts(tails))
		s := b.SortByHead()
		if s.Len() != size {
			return false
		}
		prev := Oid(0)
		for i := 0; i < s.Len(); i++ {
			h := OidAt(s.Head, i)
			if i > 0 && h < prev {
				return false
			}
			prev = h
			tl := s.Tail.(*Ints).V[i]
			if pair[h][tl] == 0 {
				return false
			}
			pair[h][tl]--
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Gather(b, idx) picks exactly the rows named by idx in order.
func TestGatherProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		size := rng.Intn(40) + 1
		tails := make([]int64, size)
		for i := range tails {
			tails[i] = rng.Int63n(1000)
		}
		b := NewDenseHead(NewInts(tails))
		k := rng.Intn(size + 1)
		idx := make([]int, k)
		for i := range idx {
			idx[i] = rng.Intn(size)
		}
		g := Gather(b, idx)
		if g.Len() != k {
			return false
		}
		for i, p := range idx {
			if OidAt(g.Head, i) != Oid(p) || g.Tail.(*Ints).V[i] != tails[p] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPostings checks the inverse of an oid vector against a scan:
// every value's positions ascending, NilOid rows in their own list,
// values outside the span empty, and a span wider than twice the rows
// refused.
func TestPostings(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(300)
		base := Oid(rng.Intn(1000))
		v := make([]Oid, n)
		for i := range v {
			v[i] = base + Oid(rng.Intn(n/2+1))
			if rng.Intn(8) == 0 {
				v[i] = NilOid
			}
		}
		p := NewPostings(v)
		if p == nil {
			t.Fatalf("trial %d: a span within the rows was refused", trial)
		}
		want := map[Oid][]int32{}
		for i, x := range v {
			want[x] = append(want[x], int32(i))
		}
		for x := base - 2; x < base+Oid(n)+2; x++ {
			if got := p.Rows(x); !slices.Equal(got, want[x]) {
				t.Fatalf("trial %d: rows of %d = %v, want %v", trial, x, got, want[x])
			}
		}
		if got := p.Rows(NilOid); !slices.Equal(got, want[NilOid]) {
			t.Fatalf("trial %d: NilOid rows = %v, want %v", trial, got, want[NilOid])
		}
		if got := p.Rows(1 << 40); len(got) != 0 {
			t.Fatalf("trial %d: an oid past the span has rows %v", trial, got)
		}
	}
	if NewPostings([]Oid{0, 5}) != nil {
		t.Fatal("a 6-oid span over 2 rows was built")
	}
	if NewPostings([]Oid{0, 3}) == nil || NewPostings([]Oid{NilOid, NilOid}) == nil || NewPostings(nil) == nil {
		t.Fatal("a span within twice the rows was refused")
	}
	v := []Oid{3, 1, 3}
	o := NewOidsWithPostings(v, NewLazyPostings(v))
	if got := o.Postings().Rows(3); !slices.Equal(got, []int32{0, 2}) || o.Postings() != o.Postings() {
		t.Fatalf("lazy postings of 3 = %v, or built twice", got)
	}
	if NewOids(v).Postings() != nil || o.Slice(0, 2).(*Oids).Postings() != nil {
		t.Fatal("a vector without a handle, or a view of one, has postings")
	}
}
