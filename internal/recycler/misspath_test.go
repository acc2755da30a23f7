package recycler

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/bat"
	"repro/internal/catalog"
	"repro/internal/mal"
	"repro/internal/opt"
)

// newFixtureRows is newFixtureQuiet over a table of n rows (v = 0..n-1).
func newFixtureRows(cfg Config, n int) *fixture {
	cat := catalog.New()
	tb := cat.CreateTable("sys", "t", []catalog.ColDef{{Name: "v", Kind: bat.KInt}})
	rows := make([]catalog.Row, n)
	for i := range rows {
		rows[i] = catalog.Row{"v": int64(i)}
	}
	tb.Append(rows)
	return &fixture{cat: cat, rec: New(cat, cfg)}
}

// chainedSelectTemplate counts the rows of t.v in [A0, A1] ∩ [A2, A3],
// as a select over a select: the inner select's operand is the shared
// bind, the outer one's is an intermediate no other query ever names —
// the shape whose index keys are born and die with every query.
func chainedSelectTemplate() *mal.Template {
	b := mal.NewBuilder("selsel")
	var a [4]mal.Arg
	for i := range a {
		a[i] = b.Param("A"+string(rune('0'+i)), mal.VInt)
	}
	yes := mal.C(mal.BoolV(true))
	x1 := b.Op1("sql", "bind", mal.C(mal.StrV("sys")), mal.C(mal.StrV("t")), mal.C(mal.StrV("v")), mal.C(mal.IntV(0)))
	x2 := b.Op1("algebra", "select", x1, a[0], a[1], yes, yes)
	x3 := b.Op1("algebra", "select", x2, a[2], a[3], yes, yes)
	x4 := b.Op1("aggr", "count", x3)
	b.Do("sql", "exportValue", mal.C(mal.StrV("n")), x4)
	return opt.Optimize(b.Freeze(), opt.Options{})
}

func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestPoolReleasesEvictedResults is the regression test for the pool
// keeping evicted results reachable: the slack of the index slices (and
// index keys whose slice had emptied) pinned every evicted entry with
// its result and argument BATs, so a pool capped at 1 MB held hundreds
// of MB live — and kept holding them after Reset.
func TestPoolReleasesEvictedResults(t *testing.T) {
	const rows = 4096
	f := newFixtureRows(Config{Admission: KeepAll, Eviction: EvictLRU, Subsumption: true, MaxBytes: 1 << 20}, rows)
	tmpl := chainedSelectTemplate()
	rng := rand.New(rand.NewSource(1))
	run := func() {
		lo := rng.Int63n(rows / 2)
		hi := lo + rows/4 + rng.Int63n(rows/4)
		f.runQuiet(tmpl, mal.IntV(lo), mal.IntV(hi), mal.IntV(lo+rng.Int63n(100)), mal.IntV(hi-rng.Int63n(100)))
	}
	run() // the bind, the template's layout and the allocator's own warm-up
	f.rec.Reset()
	base := heapAlloc()

	for f.rec.Snapshot().Admitted < 20_000 {
		run()
	}
	if s := f.rec.Snapshot(); s.Evicted < 15_000 || s.Bytes > 1<<20 {
		t.Fatalf("the stream did not turn the capped pool over: %+v", s)
	}
	checkFrontier(t, f.rec.pool)
	checkSelIndex(t, f.rec.pool)
	if n, max := len(f.rec.pool.selIdx), f.rec.pool.Len(); n > max {
		t.Fatalf("selIdx holds %d keys for a pool of %d entries: emptied keys are not dropped", n, max)
	}

	f.rec.Reset()
	if got := int64(heapAlloc()) - int64(base); got > 4<<20 {
		t.Fatalf("%.1f MB still live after Reset (baseline %.1f MB): evicted results are being retained", float64(got)/1e6, float64(base)/1e6)
	}
	p := f.rec.pool
	if n := len(p.frontier) + len(p.selIdx) + len(p.likeIdx) + len(p.semiIdx) + len(p.entries); n != 0 {
		t.Fatalf("%d index members left in an empty pool", n)
	}
	checkNoSlackPointers(t, p)
}

// exitRig drives Recycler.Exit directly: a stream of never-seen selects
// over one pooled bind, each admitted into a pool that sits at its cap.
type exitRig struct {
	rec  *Recycler
	ctx  *mal.Ctx
	in   *mal.Instr
	args []mal.Value
	ret  mal.Value
	next int64
}

// newExitRig fills the pool to its cap of n entries.
func newExitRig(cfg Config, n int) *exitRig {
	cfg.MaxEntries = n
	f := newFixtureQuiet(cfg)
	tmpl := selectCountTemplate()
	f.runQuiet(tmpl, mal.IntV(0), mal.IntV(1)) // admits the bind (e1)
	bind := f.rec.pool.Get(1)
	g := &exitRig{
		rec:  f.rec,
		ctx:  &mal.Ctx{Cat: f.cat, Hook: f.rec, Template: tmpl},
		in:   &mal.Instr{Module: "algebra", Op: "select"},
		args: []mal.Value{bind.Result, mal.IntV(0), mal.IntV(0), mal.BoolV(true), mal.BoolV(true)},
		ret:  mal.BatV(bat.NewDenseHead(bat.NewInts(make([]int64, 8)))),
	}
	for f.rec.pool.Len() < n {
		g.admit()
	}
	return g
}

// admit runs Exit for a range no entry has: the select [10k, 10k+5],
// disjoint from every other, so nothing subsumes it.
func (g *exitRig) admit() uint64 {
	g.next++
	g.ctx.QueryID = uint64(g.next)
	g.args[1], g.args[2] = mal.IntV(10*g.next), mal.IntV(10*g.next+5)
	return g.rec.Exit(g.ctx, 1, g.in, g.args, g.ret, time.Microsecond, nil)
}

// miss runs Entry for the range admit will take next: an exact-match
// miss, then a subsumption search that finds nothing.
func (g *exitRig) miss() mal.EntryResult {
	g.ctx.QueryID = uint64(g.next + 1)
	g.args[1], g.args[2] = mal.IntV(10*(g.next+1)), mal.IntV(10*(g.next+1)+5)
	return g.rec.Entry(g.ctx, 1, g.in, g.args)
}

// TestMissAdmitAllocations pins the allocation count of one miss-admit
// cycle at the cap (Entry finds nothing, Exit evicts and admits): the
// two signatures and what the admitted entry itself consists of, with
// no per-call scratch maps (protect set, lineage and column-dependency
// dedup, active-query snapshot) on top.
func TestMissAdmitAllocations(t *testing.T) {
	g := newExitRig(Config{Admission: KeepAll, Eviction: EvictLRU, Subsumption: true}, 64)
	before := g.rec.Snapshot()
	allocs := testing.AllocsPerRun(500, func() {
		if res := g.miss(); res.Hit || res.Rewrite != nil {
			t.Fatalf("expected a clean miss, got %+v", res)
		}
		if g.admit() == 0 {
			t.Fatal("admission denied")
		}
	})
	after := g.rec.Snapshot()
	if after.Admitted-before.Admitted < 500 || after.Evicted-before.Evicted < 500 || after.Entries != 64 {
		t.Fatalf("cycles did not admit and evict at the cap: %+v -> %+v", before, after)
	}
	const ceiling = 36
	if allocs > ceiling {
		t.Fatalf("a miss-admit cycle at the cap allocates %.0f objects, ceiling %d", allocs, ceiling)
	}
	t.Logf("miss-admit cycle at the cap: %.0f allocs", allocs)
}
