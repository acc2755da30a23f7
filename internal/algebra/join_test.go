package algebra

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bat"
)

func TestJoinDenseHead(t *testing.T) {
	// L: (h, tail-oid into R), R: dense head -> string.
	l := bat.New(bat.NewOids([]bat.Oid{10, 11, 12}), bat.NewOids([]bat.Oid{2, 0, 5}))
	r := bat.NewDenseHead(bat.NewStrings([]string{"a", "b", "c"}))
	j := Join(l, r)
	if j.Len() != 2 {
		t.Fatalf("join len = %d, want 2 (oid 5 unmatched)", j.Len())
	}
	if bat.OidAt(j.Head, 0) != 10 || j.Tail.Get(0) != "c" {
		t.Fatalf("row0 = %v->%v", bat.OidAt(j.Head, 0), j.Tail.Get(0))
	}
	if bat.OidAt(j.Head, 1) != 11 || j.Tail.Get(1) != "a" {
		t.Fatalf("row1 = %v->%v", bat.OidAt(j.Head, 1), j.Tail.Get(1))
	}
}

// TestJoinAllocatesItsResult gates the kernel memory contract for
// joins: a 1e6-row L keeping ≈1 % of its rows allocates at most twice
// its result's bytes, against a dense R head (positions by offset),
// against the foreign-key shape (a 100-oid R probed through its
// bitmap) and against the same shape with L's tail carrying postings
// (pairs read off the posting lists). The position lists, and the
// postings path's marks, live in one pooled buffer.
func TestJoinAllocatesItsResult(t *testing.T) {
	const n = 1_000_000
	keys := make([]bat.Oid, n)
	rng := rand.New(rand.NewSource(36))
	for i := range keys {
		keys[i] = bat.Oid(rng.Intn(n))
	}
	dense := bat.New(bat.NewDense(0, n/100), bat.NewInts(make([]int64, n/100)))
	l := bat.New(bat.NewDense(0, n), bat.NewOids(keys))
	fkL, fkR := fkJoinInputs(n, 37)
	for _, c := range []struct {
		name string
		l, r *bat.BAT
	}{{"dense", l, dense}, {"fk", fkL, fkR}, {"idx", withPostings(fkL), fkR}} {
		res := Join(c.l, c.r)
		resultBytes := uint64(res.Len()) * (8 + 8) // oid head + int tail
		if got := medianAlloc(func() { Join(c.l, c.r) }); got > 2*resultBytes {
			t.Errorf("%s: a 1e6-row Join allocates %d B, over twice its %d-row result (%d B)", c.name, got, res.Len(), resultBytes)
		}
	}
}

func TestJoinHashedHead(t *testing.T) {
	l := bat.New(bat.NewOids([]bat.Oid{1, 2}), bat.NewOids([]bat.Oid{7, 9}))
	r := bat.New(bat.NewOids([]bat.Oid{9, 7, 7}), bat.NewInts([]int64{90, 70, 71}))
	j := Join(l, r)
	// oid 7 matches twice, oid 9 once -> 3 result rows.
	if j.Len() != 3 {
		t.Fatalf("join len = %d, want 3", j.Len())
	}
}

func TestJoinByValue(t *testing.T) {
	l := bat.NewDenseHead(bat.NewInts([]int64{100, 200}))
	r := bat.New(bat.NewInts([]int64{200, 300}), bat.NewStrings([]string{"x", "y"}))
	j := Join(l, r)
	if j.Len() != 1 || j.Tail.Get(0) != "x" || bat.OidAt(j.Head, 0) != 1 {
		t.Fatalf("value join wrong: %s", j.Dump(5))
	}
}

func TestSemijoinAndAnti(t *testing.T) {
	l := bat.New(bat.NewOids([]bat.Oid{1, 2, 3}), bat.NewInts([]int64{10, 20, 30}))
	r := bat.New(bat.NewOids([]bat.Oid{2, 3, 9}), bat.NewInts([]int64{0, 0, 0}))
	s := Semijoin(l, r)
	if s.Len() != 2 || bat.OidAt(s.Head, 0) != 2 {
		t.Fatalf("semijoin wrong: %s", s.Dump(5))
	}
	a := AntiSemijoin(l, r)
	if a.Len() != 1 || bat.OidAt(a.Head, 0) != 1 {
		t.Fatalf("antisemijoin wrong: %s", a.Dump(5))
	}
	// Semijoin with superset right operand is identity.
	if Semijoin(l, l) != l {
		t.Fatal("semijoin with all-matching right should return receiver")
	}
}

func TestKUnique(t *testing.T) {
	b := bat.New(bat.NewOids([]bat.Oid{5, 5, 6, 5}), bat.NewInts([]int64{1, 2, 3, 4}))
	u := KUnique(b)
	if u.Len() != 2 || !u.KeyUnique {
		t.Fatalf("kunique wrong: %s", u.Dump(5))
	}
	if u.Tail.Get(0) != int64(1) || u.Tail.Get(1) != int64(3) {
		t.Fatal("kunique did not keep first occurrences")
	}
}

// Property: semijoin(L, R) keeps exactly the rows of L whose head is in
// head(R), in order — and the semijoin subsumption condition holds:
// if W ⊆ V then semijoin(semijoin(X, V), W) == semijoin(X, W). (§5.1)
func TestSemijoinSubsumptionEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(60) + 1
		heads := make([]bat.Oid, n)
		tails := make([]int64, n)
		for i := range heads {
			heads[i] = bat.Oid(rng.Intn(30))
			tails[i] = rng.Int63n(100)
		}
		x := bat.New(bat.NewOids(heads), bat.NewInts(tails))
		// V: random oid set; W: subset of V.
		var vHeads, wHeads []bat.Oid
		for o := bat.Oid(0); o < 30; o++ {
			if rng.Intn(2) == 0 {
				vHeads = append(vHeads, o)
				if rng.Intn(2) == 0 {
					wHeads = append(wHeads, o)
				}
			}
		}
		v := bat.New(bat.NewOids(vHeads), bat.NewOids(vHeads))
		w := bat.New(bat.NewOids(wHeads), bat.NewOids(wHeads))
		direct := Semijoin(x, w)
		via := Semijoin(Semijoin(x, v), w)
		if direct.Len() != via.Len() {
			return false
		}
		for i := 0; i < direct.Len(); i++ {
			if bat.OidAt(direct.Head, i) != bat.OidAt(via.Head, i) ||
				direct.Tail.Get(i) != via.Tail.Get(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: join over a dense-headed right operand equals the generic
// hash join.
func TestJoinDenseEqualsHash(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nl := rng.Intn(40) + 1
		nr := rng.Intn(40) + 1
		lt := make([]bat.Oid, nl)
		for i := range lt {
			lt[i] = bat.Oid(rng.Intn(nr + 5))
		}
		rt := make([]int64, nr)
		for i := range rt {
			rt[i] = rng.Int63n(100)
		}
		l := bat.New(bat.NewDense(100, nl), bat.NewOids(lt))
		rDense := bat.NewDenseHead(bat.NewInts(rt))
		rMat := bat.New(bat.NewOids(bat.MaterialiseOids(rDense.Head)), bat.NewInts(rt))
		a := Join(l, rDense)
		b := Join(l, rMat)
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if bat.OidAt(a.Head, i) != bat.OidAt(b.Head, i) || a.Tail.Get(i) != b.Tail.Get(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
