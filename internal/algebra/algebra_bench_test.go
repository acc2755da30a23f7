package algebra

import (
	"math/rand"
	"testing"

	"repro/internal/bat"
)

// Micro-benchmarks for the operator kernel: the costs the recycler
// trades against pool maintenance (paper §2.3, §4).

func randInts(n int, seed int64) *bat.BAT {
	rng := rand.New(rand.NewSource(seed))
	v := make([]int64, n)
	for i := range v {
		v[i] = rng.Int63n(1 << 20)
	}
	return bat.NewDenseHead(bat.NewInts(v))
}

func randFloats(n int, seed int64) *bat.BAT {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64() * 360
	}
	return bat.NewDenseHead(bat.NewFloats(v))
}

func BenchmarkSelectScan100k(b *testing.B) {
	data := randInts(100_000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Filter(data, inRange(int64(1000), int64(200_000), true, true))
	}
}

func BenchmarkSelectSortedView100k(b *testing.B) {
	v := make([]int64, 100_000)
	for i := range v {
		v[i] = int64(i)
	}
	data := bat.NewDenseHead(bat.NewInts(v))
	data.TailSorted = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Filter(data, inRange(int64(1000), int64(50_000), true, true))
	}
}

func BenchmarkUselect100k(b *testing.B) {
	data := randInts(100_000, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Filter(data, equalTo(int64(4242)))
	}
}

func BenchmarkHashJoin100k(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	lt := make([]bat.Oid, 100_000)
	for i := range lt {
		lt[i] = bat.Oid(rng.Intn(10_000))
	}
	l := bat.New(bat.NewDense(0, len(lt)), bat.NewOids(lt))
	r := bat.NewDenseHead(bat.NewInts(make([]int64, 10_000)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Join(l, r)
	}
}

func BenchmarkSemijoin100k(b *testing.B) {
	l := randInts(100_000, 4)
	sub := Filter(l, inRange(int64(0), int64(1<<19), true, true))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Semijoin(l, sub)
	}
}

func BenchmarkGroupAggr100k(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	keys := make([]int64, 100_000)
	vals := make([]int64, 100_000)
	for i := range keys {
		keys[i] = int64(rng.Intn(1000))
		vals[i] = rng.Int63n(100)
	}
	kb := bat.NewDenseHead(bat.NewInts(keys))
	vb := bat.NewDenseHead(bat.NewInts(vals))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := GroupNew(kb)
		AggrSum(vb, g.Grp, g.NGroups)
	}
}

func BenchmarkLikeSelect100k(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	words := []string{"forest", "green", "metal", "red", "shiny", "dark"}
	v := make([]string, 100_000)
	for i := range v {
		v[i] = words[rng.Intn(len(words))] + " " + words[rng.Intn(len(words))]
	}
	data := bat.NewDenseHead(bat.NewStrings(v))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Filter(data, Pred{Kind: PredLike, Pattern: "%green%"})
	}
}

func BenchmarkMergeDedupSorted(b *testing.B) {
	base := randFloats(200_000, 7)
	p1 := Filter(base, inRange(10.0, 25.0, true, true))
	p2 := Filter(base, inRange(20.0, 35.0, true, true))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MergeDedupByHead([]*bat.BAT{p1, p2})
	}
}

func BenchmarkReverseView(b *testing.B) {
	data := randInts(100_000, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data.Reverse()
	}
}

func BenchmarkRevenueArith100k(b *testing.B) {
	price := randFloats(100_000, 9)
	disc := randFloats(100_000, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulFloat(price, SubFromConstFloat(disc, 1))
	}
}
