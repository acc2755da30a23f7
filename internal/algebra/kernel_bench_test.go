package algebra

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bat"
)

// Size-parameterized kernel benchmarks for the raw-speed pass. Each
// kernel runs at 1e4, 1e5 and 1e6 rows so the benchstat CI artifact
// exposes both the per-row cost (cache-resident sizes) and the
// bandwidth-bound regime. scripts/profile.sh pairs these with a pprof
// capture of the full SkyServer mix.

var kernelSizes = []int{10_000, 100_000, 1_000_000}

func BenchmarkKernelSelect(b *testing.B) {
	for _, n := range kernelSizes {
		data := randInts(n, 11)
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			b.SetBytes(int64(n * 8))
			for i := 0; i < b.N; i++ {
				Filter(data, inRange(int64(1000), int64(1<<19), true, true))
			}
		})
	}
}

func BenchmarkKernelSelectFloat(b *testing.B) {
	for _, n := range kernelSizes {
		data := randFloats(n, 12)
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			b.SetBytes(int64(n * 8))
			for i := 0; i < b.N; i++ {
				Filter(data, inRange(45.0, 270.0, true, true))
			}
		})
	}
}

func BenchmarkKernelHashBuild(b *testing.B) {
	for _, n := range kernelSizes {
		rng := rand.New(rand.NewSource(13))
		keys := make([]bat.Oid, n)
		for i := range keys {
			keys[i] = bat.Oid(rng.Intn(n))
		}
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			b.SetBytes(int64(n * 8))
			for i := 0; i < b.N; i++ {
				bat.BuildOids(keys)
			}
		})
	}
}

// BenchmarkKernelJoin runs two oid joins per size: rows=N, where every
// L key hits one of N/10 unique R heads, and fk/rows=N, the selective
// foreign-key shape of TPC-H Q8, where L ranges over a 10 000-oid
// domain and R holds 1 % of it, so nearly every probe misses.
func BenchmarkKernelJoin(b *testing.B) {
	for _, n := range kernelSizes {
		rng := rand.New(rand.NewSource(14))
		lt := make([]bat.Oid, n)
		for i := range lt {
			lt[i] = bat.Oid(rng.Intn(n / 10))
		}
		l := bat.New(bat.NewDense(0, n), bat.NewOids(lt))
		rh := make([]bat.Oid, n/10)
		rt := make([]int64, n/10)
		for i := range rh {
			rh[i] = bat.Oid(i)
			rt[i] = int64(i)
		}
		r := bat.New(bat.NewOids(rh), bat.NewInts(rt))
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			b.SetBytes(int64(n * 8))
			for i := 0; i < b.N; i++ {
				Join(l, r)
			}
		})
	}
	for _, n := range kernelSizes {
		l, r := fkJoinInputs(n, 14)
		b.Run(fmt.Sprintf("fk/rows=%d", n), func(b *testing.B) {
			b.SetBytes(int64(n * 8))
			b.ReportAllocs()
			for b.Loop() {
				Join(l, r)
			}
		})
	}
	// idx/ is fk/ with L bound as a join index: its tail carries
	// postings (built once, before the clock starts), so the join
	// reads the ≈1 % of L rows R's oids reach.
	for _, n := range kernelSizes {
		l, r := fkJoinInputs(n, 14)
		l = withPostings(l)
		b.Run(fmt.Sprintf("idx/rows=%d", n), func(b *testing.B) {
			b.SetBytes(int64(n * 8))
			b.ReportAllocs()
			for b.Loop() {
				Join(l, r)
			}
		})
	}
	// sorted/ is Q8's order join: a few thousand keys against a
	// sorted unique R holding 28 % of a 75 000-oid domain.
	for _, n := range []int{500, 2_000, 8_000} {
		l, r := sortedJoinInputs(n, 75_000, 21_000, 18)
		b.Run(fmt.Sprintf("sorted/keys=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				Join(l, r)
			}
		})
	}
}

// withPostings returns l with its oid tail carrying postings, as a
// catalog-bound join index has, built before it is returned.
func withPostings(l *bat.BAT) *bat.BAT {
	tail := bat.NewOidsWithPostings(l.Tail.(*bat.Oids).V, bat.NewLazyPostings(l.Tail.(*bat.Oids).V))
	tail.Postings()
	return bat.New(l.Head, tail)
}

// sortedJoinInputs builds n ascending keys over a domain of dom oids
// and an R of rn sorted unique oids from the same domain, int tail.
func sortedJoinInputs(n, dom, rn int, seed int64) (l, r *bat.BAT) {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]bat.Oid, n)
	for i := range keys {
		keys[i] = bat.Oid(rng.Intn(dom))
	}
	slices.Sort(keys)
	rh := make([]bat.Oid, rn)
	for i, v := range rng.Perm(dom)[:rn] {
		rh[i] = bat.Oid(v)
	}
	slices.Sort(rh)
	r = bat.New(bat.NewOids(rh), bat.NewInts(make([]int64, rn)))
	r.HeadSorted, r.KeyUnique = true, true
	return bat.New(bat.NewDense(0, n), bat.NewOids(keys)), r
}

// fkJoinInputs builds a foreign-key join: an n-row L whose oid tail
// ranges over a 10 000-oid domain, and an R holding 100 of those oids
// (1 %), unsorted, each with an int tail.
func fkJoinInputs(n int, seed int64) (l, r *bat.BAT) {
	const domain = 10_000
	rng := rand.New(rand.NewSource(seed))
	lt := make([]bat.Oid, n)
	for i := range lt {
		lt[i] = bat.Oid(rng.Intn(domain))
	}
	rh := make([]bat.Oid, domain/100)
	for i, v := range rng.Perm(domain)[:len(rh)] {
		rh[i] = bat.Oid(v)
	}
	return bat.New(bat.NewDense(0, n), bat.NewOids(lt)), bat.New(bat.NewOids(rh), bat.NewInts(make([]int64, len(rh))))
}

// BenchmarkKernelAntiSemijoin is delete propagation over an unsorted
// intermediate: L's n heads are a shuffled [0, n), R deletes 1 % of
// them, so neither side is sorted and the membership path runs.
func BenchmarkKernelAntiSemijoin(b *testing.B) {
	for _, n := range kernelSizes {
		rng := rand.New(rand.NewSource(16))
		lh := make([]bat.Oid, n)
		for i, v := range rng.Perm(n) {
			lh[i] = bat.Oid(v)
		}
		rh := make([]bat.Oid, n/100)
		for i := range rh {
			rh[i] = lh[rng.Intn(n)]
		}
		l := bat.New(bat.NewOids(lh), bat.NewInts(make([]int64, n)))
		r := bat.New(bat.NewOids(rh), bat.NewOids(rh))
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			b.SetBytes(int64(n * 8))
			for b.Loop() {
				AntiSemijoin(l, r)
			}
		})
	}
}

func BenchmarkKernelGroup(b *testing.B) {
	for _, n := range kernelSizes {
		rng := rand.New(rand.NewSource(15))
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = int64(rng.Intn(1000))
		}
		kb := bat.NewDenseHead(bat.NewInts(keys))
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			b.SetBytes(int64(n * 8))
			for i := 0; i < b.N; i++ {
				GroupNew(kb)
			}
		})
		// Q12's group-by over l_shipmode: seven strings.
		modes := []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
		strs := make([]string, n)
		for i := range strs {
			strs[i] = modes[rng.Intn(len(modes))]
		}
		sb := bat.NewDenseHead(bat.NewStrings(strs))
		b.Run(fmt.Sprintf("str/rows=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				GroupNew(sb)
			}
		})
	}
	// 10 000 rows of a column with 16 values a row: past the direct
	// index's bound, the group ids hash the codes.
	const n, d = 10_000, 160_000
	rng := rand.New(rand.NewSource(16))
	vals := make([]string, d)
	for i := range vals {
		vals[i] = fmt.Sprintf("v%d", i)
	}
	sel := make(bat.SelectionVector, n)
	for i := range sel {
		sel[i] = int32(rng.Intn(d))
	}
	wide := bat.NewDenseHead(bat.GatherVectorSel(bat.NewStrings(vals), sel))
	b.Run(fmt.Sprintf("str/dict=%d/rows=%d", d, n), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			GroupNew(wide)
		}
	})
}

// BenchmarkKernelSelectStrings filters strings by =, LIKE and NOT LIKE
// over three vectors: 1e6 rows of 150 values (TPC-H's p_type), 1e6 rows
// of one value a row (a comment), and a 10 000-row sample of the
// latter, whose dictionary is 100× its rows, so it tests the rows.
func BenchmarkKernelSelectStrings(b *testing.B) {
	const n = 1_000_000
	rng := rand.New(rand.NewSource(21))
	syl := [][]string{
		{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"},
		{"ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"},
		{"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"},
	}
	types, unique := make([]string, n), make([]string, n)
	for i := range types {
		types[i] = syl[0][rng.Intn(6)] + " " + syl[1][rng.Intn(5)] + " " + syl[2][rng.Intn(5)]
		unique[i] = fmt.Sprintf("comment %d of the batch", rng.Int63())
	}
	cols := []struct {
		name string
		base *bat.BAT
		eq   string
	}{
		{"card=150", bat.NewDenseHead(bat.NewStrings(types)), "PROMO BRUSHED TIN"},
		{"unique", bat.NewDenseHead(bat.NewStrings(unique)), unique[n/2]},
	}
	sample := make(bat.SelectionVector, n/100)
	for i := range sample {
		sample[i] = int32(rng.Intn(n))
	}
	cols = append(cols, struct {
		name string
		base *bat.BAT
		eq   string
	}{"unique/sample", bat.NewDenseHead(bat.GatherVectorSel(cols[1].base.Tail, sample)), unique[sample[0]]})
	for _, c := range cols {
		for _, p := range []struct {
			name string
			pred Pred
		}{
			{"eq", equalTo(c.eq)},
			{"like", Pred{Kind: PredLike, Pattern: "%BRASS%"}},
			{"notlike", Pred{Kind: PredNotLike, Pattern: "MEDIUM POLISHED%"}},
		} {
			b.Run(c.name+"/"+p.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					Filter(c.base, p.pred)
				}
			})
		}
	}
}

// BenchmarkKernelSelectPaths covers the Filter paths the single-op
// entry points used to own: equality, not-nil and the sorted-tail
// binary search (a zero-copy view).
func BenchmarkKernelSelectPaths(b *testing.B) {
	for _, n := range kernelSizes {
		rng := rand.New(rand.NewSource(17))
		small := make([]int64, n)
		sorted := make([]int64, n)
		for i := range small {
			small[i] = int64(rng.Intn(16))
			if rng.Intn(10) == 0 {
				small[i] = bat.NilInt
			}
			sorted[i] = int64(i)
		}
		ints := bat.NewDenseHead(bat.NewInts(small))
		sortedInts := bat.NewDenseHead(bat.NewInts(sorted))
		sortedInts.TailSorted = true
		cases := []struct {
			name string
			base *bat.BAT
			pred Pred
		}{
			{"uselect", randInts(n, 19), equalTo(int64(4242))},
			{"notnil", ints, Pred{Kind: PredNotNil}},
			{"sorted", sortedInts, inRange(int64(n/4), int64(n/2), true, false)},
		}
		for _, c := range cases {
			b.Run(fmt.Sprintf("%s/rows=%d", c.name, n), func(b *testing.B) {
				b.SetBytes(int64(n * 8))
				for i := 0; i < b.N; i++ {
					Filter(c.base, c.pred)
				}
			})
		}
	}
}

// BenchmarkKernelSelectNarrow is the full-column scan of a sky-explore
// miss: a 2 %-selective float range over 200k rows, where the scratch
// selection, not the result, used to dominate what a scan allocates.
func BenchmarkKernelSelectNarrow(b *testing.B) {
	data := randFloats(200_000, 20)
	b.SetBytes(200_000 * 8)
	b.ReportAllocs()
	for b.Loop() {
		Filter(data, inRange(180.0, 187.2, true, true))
	}
}

// BenchmarkSemijoinSorted is a subsumed semijoin as sky-explore runs
// it: L a cached semijoin result (≈4.6k sorted-unique oids), R a
// narrower selection (≈2.8k oids, R ⊆ L, sorted-unique).
func BenchmarkSemijoinSorted(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	lh := make([]bat.Oid, 4600)
	for i := range lh {
		lh[i] = bat.Oid(2*i + rng.Intn(2))
	}
	var rh []bat.Oid
	for _, v := range lh {
		if rng.Intn(5) < 3 {
			rh = append(rh, v)
		}
	}
	l := bat.New(bat.NewOids(lh), bat.NewFloats(make([]float64, len(lh))))
	l.HeadSorted, l.KeyUnique = true, true
	r := bat.New(bat.NewOids(rh), bat.NewOids(rh))
	r.HeadSorted, r.KeyUnique = true, true
	b.ReportAllocs()
	for b.Loop() {
		Semijoin(l, r)
	}
}

// BenchmarkSemijoinDenseSorted is Q12's pair of semijoins over
// lineitem: two sorted unique selections of one 300 000-row column,
// each holding a share of its rows, intersected — both sides dense
// enough that one bitmap pass beats galloping — beside a sparse L the
// gallop still answers.
func BenchmarkSemijoinDenseSorted(b *testing.B) {
	const dom = 300_000
	for _, c := range []struct {
		name   string
		lp, rp float64
	}{{"l=86k,r=150k", 2.0 / 7, 0.5}, {"l=43k,r=150k", 1.0 / 7, 0.5}, {"l=10k,r=150k", 1.0 / 30, 0.5}, {"l=2k,r=150k", 1.0 / 150, 0.5}} {
		rng := rand.New(rand.NewSource(22))
		pick := func(p float64) []bat.Oid {
			var v []bat.Oid
			for i := 0; i < dom; i++ {
				if rng.Float64() < p {
					v = append(v, bat.Oid(i))
				}
			}
			return v
		}
		lh, rh := pick(c.lp), pick(c.rp)
		l := bat.New(bat.NewOids(lh), bat.NewOids(lh))
		l.HeadSorted, l.KeyUnique = true, true
		r := bat.New(bat.NewOids(rh), bat.NewOids(rh))
		r.HeadSorted, r.KeyUnique = true, true
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				Semijoin(l, r)
			}
		})
	}
}
