package recycler

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/algebra"
	"repro/internal/bat"
	"repro/internal/catalog"
	"repro/internal/mal"
	"repro/internal/opt"
	"repro/internal/trace"
)

// --- test fixtures -------------------------------------------------

// fixture bundles a catalog with one int table and a runner that
// drives templates through the recycler like the engine does.
type fixture struct {
	cat     *catalog.Catalog
	rec     *Recycler
	queryID uint64
}

// newFixture registers the before listeners ahead of the recycler, so
// they run inside every commit window: the mutation visible, the pool
// not yet brought up to date.
func newFixture(t *testing.T, cfg Config, before ...catalog.UpdateListener) *fixture {
	t.Helper()
	return newFixtureQuiet(cfg, before...)
}

func (f *fixture) run(t *testing.T, tmpl *mal.Template, params ...mal.Value) *mal.Ctx {
	t.Helper()
	f.queryID++
	ctx := &mal.Ctx{Cat: f.cat, Hook: f.rec, QueryID: f.queryID}
	f.rec.BeginQuery(f.queryID, tmpl.ID)
	defer f.rec.EndQuery(f.queryID)
	if err := mal.Run(ctx, tmpl, params...); err != nil {
		t.Fatal(err)
	}
	return ctx
}

// selectCountTemplate: count rows of t.v in [A0, A1].
func selectCountTemplate() *mal.Template {
	b := mal.NewBuilder("selcount")
	a0 := b.Param("A0", mal.VInt)
	a1 := b.Param("A1", mal.VInt)
	x1 := b.Op1("sql", "bind", mal.C(mal.StrV("sys")), mal.C(mal.StrV("t")), mal.C(mal.StrV("v")), mal.C(mal.IntV(0)))
	x2 := b.Op1("algebra", "select", x1, a0, a1, mal.C(mal.BoolV(true)), mal.C(mal.BoolV(true)))
	x3 := b.Op1("aggr", "count", x2)
	b.Do("sql", "exportValue", mal.C(mal.StrV("n")), x3)
	return opt.Optimize(b.Freeze(), opt.Options{})
}

// localReuseTemplate computes the same select twice within one query.
// It compiles with CSE disabled deliberately: the static duplicate IS
// the point — these tests exercise the run-time local-reuse path,
// which still matters for duplicates the optimizer cannot see (two
// statically distinct instructions whose parameter values coincide at
// run time). The default pipeline merges static duplicates before the
// recycler ever sees them; TestCSERemovesStaticLocalReuse pins that.
func localReuseTemplate() *mal.Template {
	return opt.Optimize(buildLocalReuse(), opt.Options{SkipCSE: true})
}

func buildLocalReuse() *mal.Template {
	b := mal.NewBuilder("local")
	a0 := b.Param("A0", mal.VInt)
	x1 := b.Op1("sql", "bind", mal.C(mal.StrV("sys")), mal.C(mal.StrV("t")), mal.C(mal.StrV("v")), mal.C(mal.IntV(0)))
	x2 := b.Op1("algebra", "select", x1, mal.C(mal.IntV(0)), a0, mal.C(mal.BoolV(true)), mal.C(mal.BoolV(true)))
	x2b := b.Op1("algebra", "select", x1, mal.C(mal.IntV(0)), a0, mal.C(mal.BoolV(true)), mal.C(mal.BoolV(true)))
	x3 := b.Op1("aggr", "count", x2)
	x4 := b.Op1("aggr", "count", x2b)
	b.Do("sql", "exportValue", mal.C(mal.StrV("n1")), x3)
	b.Do("sql", "exportValue", mal.C(mal.StrV("n2")), x4)
	return b.Freeze()
}

func resultInt(t *testing.T, ctx *mal.Ctx, i int) int64 {
	t.Helper()
	if len(ctx.Results) <= i {
		t.Fatalf("missing result %d", i)
	}
	return ctx.Results[i].Val.I
}

// --- basic matching and reuse --------------------------------------

func TestGlobalExactReuse(t *testing.T) {
	f := newFixture(t, Config{Admission: KeepAll})
	tmpl := selectCountTemplate()

	ctx1 := f.run(t, tmpl, mal.IntV(10), mal.IntV(20))
	if got := resultInt(t, ctx1, 0); got != 11 {
		t.Fatalf("count = %d, want 11", got)
	}
	if ctx1.Stats.Hits != 0 {
		t.Fatalf("first run had %d hits", ctx1.Stats.Hits)
	}
	poolAfter1 := f.rec.Pool().Len()
	if poolAfter1 == 0 {
		t.Fatal("nothing admitted")
	}

	ctx2 := f.run(t, tmpl, mal.IntV(10), mal.IntV(20))
	if got := resultInt(t, ctx2, 0); got != 11 {
		t.Fatalf("count2 = %d", got)
	}
	// bind + select + count all hit.
	if ctx2.Stats.Hits != 3 || ctx2.Stats.GlobalHits != 3 {
		t.Fatalf("hits = %+v", ctx2.Stats)
	}
	if f.rec.Pool().Len() != poolAfter1 {
		t.Fatal("pool grew on full reuse")
	}
}

func TestDifferentParamsMiss(t *testing.T) {
	f := newFixture(t, Config{Admission: KeepAll})
	tmpl := selectCountTemplate()
	f.run(t, tmpl, mal.IntV(10), mal.IntV(20))
	ctx := f.run(t, tmpl, mal.IntV(30), mal.IntV(40))
	// Only the bind matches; select/count differ.
	if ctx.Stats.HitsNonBind != 0 {
		t.Fatalf("unexpected non-bind hits: %+v", ctx.Stats)
	}
	if ctx.Stats.Hits != 1 {
		t.Fatalf("bind should hit once, got %d", ctx.Stats.Hits)
	}
}

func TestLocalReuse(t *testing.T) {
	f := newFixture(t, Config{Admission: KeepAll})
	tmpl := localReuseTemplate()
	ctx := f.run(t, tmpl, mal.IntV(5))
	if resultInt(t, ctx, 0) != 6 || resultInt(t, ctx, 1) != 6 {
		t.Fatal("wrong counts")
	}
	if ctx.Stats.LocalHits != 2 { // duplicated select + its count
		t.Fatalf("local hits = %d, want 2", ctx.Stats.LocalHits)
	}
}

// TestCSERemovesStaticLocalReuse pins the default pipeline's division
// of labour: static duplicates are merged at compile time (no run-time
// local hits left to serve), with identical results and a smaller
// pool.
func TestCSERemovesStaticLocalReuse(t *testing.T) {
	f := newFixture(t, Config{Admission: KeepAll})
	tmpl := opt.Optimize(buildLocalReuse(), opt.Options{})
	ctx := f.run(t, tmpl, mal.IntV(5))
	if resultInt(t, ctx, 0) != 6 || resultInt(t, ctx, 1) != 6 {
		t.Fatal("wrong counts")
	}
	if ctx.Stats.LocalHits != 0 {
		t.Fatalf("local hits = %d, want 0 (duplicates merged statically)", ctx.Stats.LocalHits)
	}
	if got := f.rec.Pool().Len(); got != 3 { // bind, select, count — once each
		t.Fatalf("pool entries = %d, want 3", got)
	}
}

func TestRecyclingNeverChangesResults(t *testing.T) {
	f := newFixture(t, Config{Admission: KeepAll, Subsumption: true, CombinedSubsumption: true})
	tmpl := selectCountTemplate()
	naive := catalog.New()
	tb := naive.CreateTable("sys", "t", []catalog.ColDef{
		{Name: "v", Kind: bat.KInt},
		{Name: "w", Kind: bat.KInt},
	})
	rows := make([]catalog.Row, 100)
	for i := range rows {
		rows[i] = catalog.Row{"v": int64(i), "w": int64(i % 10)}
	}
	tb.Append(rows)

	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 50; i++ {
		lo := int64(rng.Intn(80))
		hi := lo + int64(rng.Intn(30))
		ctx := f.run(t, tmpl, mal.IntV(lo), mal.IntV(hi))
		nctx := &mal.Ctx{Cat: naive}
		if err := mal.Run(nctx, tmpl, mal.IntV(lo), mal.IntV(hi)); err != nil {
			t.Fatal(err)
		}
		if ctx.Results[0].Val.I != nctx.Results[0].Val.I {
			t.Fatalf("iteration %d: recycled %d != naive %d (lo=%d hi=%d)",
				i, ctx.Results[0].Val.I, nctx.Results[0].Val.I, lo, hi)
		}
	}
}

// --- lineage --------------------------------------------------------

func TestLineageCutBlocksAdmission(t *testing.T) {
	// With 1 credit, the param-dependent select stops being admitted
	// after its credit is spent; its dependent count instruction then
	// has a provenance-less argument and must not be admitted either.
	f := newFixture(t, Config{Admission: Credit, Credits: 1})
	tmpl := selectCountTemplate()
	f.run(t, tmpl, mal.IntV(0), mal.IntV(1))
	size1 := f.rec.Pool().Len()
	f.run(t, tmpl, mal.IntV(0), mal.IntV(2)) // different params: miss, no credit left
	size2 := f.rec.Pool().Len()
	if size2 != size1 {
		t.Fatalf("pool grew after credits exhausted: %d -> %d", size1, size2)
	}
	f.run(t, tmpl, mal.IntV(0), mal.IntV(3))
	if f.rec.Pool().Len() != size1 {
		t.Fatal("pool still growing")
	}
}

// --- admission policies ---------------------------------------------

func TestCreditReturnedOnLocalReuse(t *testing.T) {
	f := newFixture(t, Config{Admission: Credit, Credits: 1})
	tmpl := localReuseTemplate()
	// Each invocation uses different params, so no global reuse; but
	// the local duplicate returns the credit each time, so admissions
	// keep happening.
	for i := 0; i < 5; i++ {
		ctx := f.run(t, tmpl, mal.IntV(int64(5+i)))
		if ctx.Stats.LocalHits == 0 {
			t.Fatalf("iteration %d: no local reuse", i)
		}
	}
}

func TestCreditReturnedOnEvictionOfGloballyReused(t *testing.T) {
	f := newFixture(t, Config{Admission: Credit, Credits: 1})
	tmpl := selectCountTemplate()
	f.run(t, tmpl, mal.IntV(10), mal.IntV(20))
	f.run(t, tmpl, mal.IntV(10), mal.IntV(20)) // global reuse
	// Evict everything.
	f.rec.Reset()
	// Credit was returned, so a new instance can be admitted.
	f.run(t, tmpl, mal.IntV(30), mal.IntV(44))
	ctx := f.run(t, tmpl, mal.IntV(30), mal.IntV(44))
	if ctx.Stats.HitsNonBind == 0 {
		t.Fatal("select not re-admitted after credit return")
	}
}

func TestAdaptPromotesAndBlocks(t *testing.T) {
	f := newFixture(t, Config{Admission: Adapt, Credits: 2})
	tmpl := selectCountTemplate()
	// Invocations 1..2 with identical params: select gets reused.
	f.run(t, tmpl, mal.IntV(10), mal.IntV(20))
	f.run(t, tmpl, mal.IntV(10), mal.IntV(20))
	// Decision point happens at invocation 3 = credits+1.
	f.run(t, tmpl, mal.IntV(10), mal.IntV(20))
	// The reused instructions are promoted: new instances (other
	// params) admit freely.
	before := f.rec.Pool().Len()
	f.run(t, tmpl, mal.IntV(1), mal.IntV(7))
	if f.rec.Pool().Len() <= before {
		t.Fatal("promoted instruction was not admitted")
	}

	// Now a workload where nothing is ever reused: after the decision
	// point admissions stop.
	f2 := newFixture(t, Config{Admission: Adapt, Credits: 2})
	for i := 0; i < 3; i++ {
		f2.run(t, tmpl, mal.IntV(int64(i*3)), mal.IntV(int64(i*3+1)))
	}
	size := f2.rec.Pool().Len()
	f2.run(t, tmpl, mal.IntV(50), mal.IntV(60))
	if f2.rec.Pool().Len() > size {
		t.Fatal("blocked instruction still admitted")
	}
}

// --- eviction --------------------------------------------------------

// wideTemplate produces a select chain so pool entries have lineage:
// bind (shared) -> select(param) -> reverse.
func wideTemplate() *mal.Template {
	b := mal.NewBuilder("wide")
	a0 := b.Param("A0", mal.VInt)
	x1 := b.Op1("sql", "bind", mal.C(mal.StrV("sys")), mal.C(mal.StrV("t")), mal.C(mal.StrV("v")), mal.C(mal.IntV(0)))
	x2 := b.Op1("algebra", "select", x1, a0, mal.C(mal.IntV(1000)), mal.C(mal.BoolV(true)), mal.C(mal.BoolV(true)))
	x3 := b.Op1("bat", "reverse", x2)
	x4 := b.Op1("aggr", "count", x3)
	b.Do("sql", "exportValue", mal.C(mal.StrV("n")), x4)
	return opt.Optimize(b.Freeze(), opt.Options{})
}

func TestEvictionRespectsLineage(t *testing.T) {
	f := newFixture(t, Config{Admission: KeepAll, Eviction: EvictLRU, MaxEntries: 6})
	tmpl := wideTemplate()
	for i := 0; i < 8; i++ {
		f.run(t, tmpl, mal.IntV(int64(i)))
	}
	if f.rec.Pool().Len() > 6 {
		t.Fatalf("pool size %d exceeds limit", f.rec.Pool().Len())
	}
	// Every remaining non-leaf must still have its parents present:
	for _, e := range f.rec.Pool().All() {
		for _, dep := range e.DependsOn {
			if f.rec.Pool().Get(dep) == nil {
				t.Fatalf("entry e%d lost parent e%d", e.ID, dep)
			}
		}
	}
}

func TestLRUEvictsOldest(t *testing.T) {
	f := newFixture(t, Config{Admission: KeepAll, Eviction: EvictLRU, MaxEntries: 8})
	tmpl := selectCountTemplate()
	f.run(t, tmpl, mal.IntV(0), mal.IntV(5)) // A
	f.run(t, tmpl, mal.IntV(6), mal.IntV(9)) // B
	// Touch A again so B becomes oldest.
	f.run(t, tmpl, mal.IntV(0), mal.IntV(5))
	// Force evictions.
	f.run(t, tmpl, mal.IntV(20), mal.IntV(30))
	f.run(t, tmpl, mal.IntV(40), mal.IntV(55))
	// A must still hit; B should be gone (its select/count evicted).
	ctx := f.run(t, tmpl, mal.IntV(0), mal.IntV(5))
	if ctx.Stats.HitsNonBind == 0 {
		t.Fatal("recently used entry was evicted")
	}
}

func TestBPKeepsWeightyReusedEntries(t *testing.T) {
	f := newFixture(t, Config{Admission: KeepAll, Eviction: EvictBP, MaxEntries: 8})
	tmpl := selectCountTemplate()
	// A is reused twice -> weight = reuse count.
	f.run(t, tmpl, mal.IntV(0), mal.IntV(50))
	f.run(t, tmpl, mal.IntV(0), mal.IntV(50))
	f.run(t, tmpl, mal.IntV(0), mal.IntV(50))
	// Now flood with unused entries.
	for i := 0; i < 6; i++ {
		f.run(t, tmpl, mal.IntV(int64(60+i)), mal.IntV(int64(62+i)))
	}
	ctx := f.run(t, tmpl, mal.IntV(0), mal.IntV(50))
	if ctx.Stats.HitsNonBind == 0 {
		t.Fatal("benefit policy evicted the weighty reused entry")
	}
}

func TestMemoryLimitEnforced(t *testing.T) {
	f := newFixture(t, Config{Admission: KeepAll, Eviction: EvictBP, MaxBytes: 4096})
	tmpl := selectCountTemplate()
	for i := 0; i < 20; i++ {
		f.run(t, tmpl, mal.IntV(int64(i)), mal.IntV(int64(i+30)))
	}
	if f.rec.Pool().Bytes() > 4096 {
		t.Fatalf("pool bytes %d exceed limit", f.rec.Pool().Bytes())
	}
}

func TestHPEviction(t *testing.T) {
	f := newFixture(t, Config{Admission: KeepAll, Eviction: EvictHP, MaxEntries: 6})
	tmpl := selectCountTemplate()
	for i := 0; i < 10; i++ {
		f.run(t, tmpl, mal.IntV(int64(i)), mal.IntV(int64(i+2)))
	}
	if f.rec.Pool().Len() > 6 {
		t.Fatalf("pool size %d exceeds limit", f.rec.Pool().Len())
	}
}

// --- subsumption ------------------------------------------------------

func TestSingletonSelectSubsumption(t *testing.T) {
	f := newFixture(t, Config{Admission: KeepAll, Subsumption: true})
	tmpl := selectCountTemplate()
	f.run(t, tmpl, mal.IntV(10), mal.IntV(60)) // superset
	ctx := f.run(t, tmpl, mal.IntV(20), mal.IntV(30))
	if ctx.Stats.Subsumed != 1 {
		t.Fatalf("subsumed = %d, want 1", ctx.Stats.Subsumed)
	}
	if got := resultInt(t, ctx, 0); got != 11 {
		t.Fatalf("subsumed count = %d, want 11", got)
	}
	// The derived entry records its derivation edge.
	var derived *Entry
	for _, e := range f.rec.Pool().All() {
		if e.IsRangeSelect && e.SubsetOf != 0 {
			derived = e
		}
	}
	if derived == nil {
		t.Fatal("no derivation edge recorded")
	}
}

func TestSubsumptionPicksSmallestSuperset(t *testing.T) {
	f := newFixture(t, Config{Admission: KeepAll, Subsumption: true})
	tmpl := selectCountTemplate()
	f.run(t, tmpl, mal.IntV(0), mal.IntV(99)) // big superset
	f.run(t, tmpl, mal.IntV(15), mal.IntV(40))
	ctx := f.run(t, tmpl, mal.IntV(20), mal.IntV(30))
	if ctx.Stats.Subsumed != 1 {
		t.Fatalf("subsumed = %d", ctx.Stats.Subsumed)
	}
	// The smaller superset [15,40] (26 tuples) must be chosen over
	// [0,99]: find the derived entry and check its parent size.
	for _, e := range f.rec.Pool().All() {
		if e.SubsetOf != 0 && e.IsRangeSelect && e.Tuples == 11 {
			parent := f.rec.Pool().Get(e.SubsetOf)
			if parent.Tuples != 26 {
				t.Fatalf("picked parent with %d tuples, want 26", parent.Tuples)
			}
			return
		}
	}
	t.Fatal("derived entry not found")
}

func TestCombinedSubsumption(t *testing.T) {
	f := newFixture(t, Config{Admission: KeepAll, Subsumption: true, CombinedSubsumption: true})
	tmpl := selectCountTemplate()
	f.run(t, tmpl, mal.IntV(3), mal.IntV(7))  // X1
	f.run(t, tmpl, mal.IntV(5), mal.IntV(15)) // X2
	ctx := f.run(t, tmpl, mal.IntV(4), mal.IntV(8))
	if ctx.Stats.Combined != 1 {
		t.Fatalf("combined = %d, want 1 (stats=%+v)", ctx.Stats.Combined, ctx.Stats)
	}
	if got := resultInt(t, ctx, 0); got != 5 {
		t.Fatalf("combined count = %d, want 5", got)
	}
}

func TestCombinedSubsumptionRejectsGaps(t *testing.T) {
	f := newFixture(t, Config{Admission: KeepAll, Subsumption: true, CombinedSubsumption: true})
	tmpl := selectCountTemplate()
	f.run(t, tmpl, mal.IntV(0), mal.IntV(5))
	f.run(t, tmpl, mal.IntV(50), mal.IntV(60)) // disjoint
	ctx := f.run(t, tmpl, mal.IntV(2), mal.IntV(55))
	if ctx.Stats.Combined != 0 {
		t.Fatal("combined subsumption over a gap must not trigger")
	}
	if got := resultInt(t, ctx, 0); got != 54 {
		t.Fatalf("count = %d, want 54", got)
	}
}

// selectCountFlagsTemplate is selectCountTemplate with the
// inclusiveness flags baked in as constants (params stay the bounds).
func selectCountFlagsTemplate(incLo, incHi bool) *mal.Template {
	b := mal.NewBuilder("selcountflags")
	a0 := b.Param("A0", mal.VInt)
	a1 := b.Param("A1", mal.VInt)
	x1 := b.Op1("sql", "bind", mal.C(mal.StrV("sys")), mal.C(mal.StrV("t")), mal.C(mal.StrV("v")), mal.C(mal.IntV(0)))
	x2 := b.Op1("algebra", "select", x1, a0, a1, mal.C(mal.BoolV(incLo)), mal.C(mal.BoolV(incHi)))
	x3 := b.Op1("aggr", "count", x2)
	b.Do("sql", "exportValue", mal.C(mal.StrV("n")), x3)
	return opt.Optimize(b.Freeze(), opt.Options{})
}

// TestCombinedSubsumptionExclusiveBoundaryHole: two cached selects
// that both EXCLUDE a shared boundary point — v in [0,44) and v in
// (44,99] — do not union into a solid interval: v=44 is a hole. A
// combined cover built from them would silently drop the boundary
// rows, so the target [39,44] must be answered correctly (regular
// execution or a sound cover), never from the holed union.
func TestCombinedSubsumptionExclusiveBoundaryHole(t *testing.T) {
	f := newFixture(t, Config{Admission: KeepAll, Subsumption: true, CombinedSubsumption: true})
	exc := selectCountFlagsTemplate(true, false) // [lo, hi)
	f.run(t, exc, mal.IntV(0), mal.IntV(44))
	excLo := selectCountFlagsTemplate(false, true) // (lo, hi]
	f.run(t, excLo, mal.IntV(44), mal.IntV(99))

	ctx := f.run(t, selectCountTemplate(), mal.IntV(39), mal.IntV(44))
	if got := resultInt(t, ctx, 0); got != 6 {
		t.Fatalf("count over exclusive-boundary pieces = %d, want 6 (v=44 dropped through the hole)", got)
	}
}

func TestCombinedPrefersCheaperThanBase(t *testing.T) {
	// When the covering pieces together are larger than the base
	// column, regular execution must win.
	f := newFixture(t, Config{Admission: KeepAll, Subsumption: true, CombinedSubsumption: true})
	tmpl := selectCountTemplate()
	f.run(t, tmpl, mal.IntV(0), mal.IntV(90))
	f.run(t, tmpl, mal.IntV(5), mal.IntV(99))
	// Target [0,99]: no singleton superset ([0,90] and [5,99] both
	// fail); combined cover costs 91+95 > 100 base tuples.
	ctx := f.run(t, tmpl, mal.IntV(0), mal.IntV(99))
	if ctx.Stats.Combined != 0 {
		t.Fatal("combined subsumption used despite higher cost")
	}
	if got := resultInt(t, ctx, 0); got != 100 {
		t.Fatalf("count = %d", got)
	}
}

// semijoinTemplate: semijoin of t.w rows against a select on t.v.
func semijoinTemplate() *mal.Template {
	b := mal.NewBuilder("semi")
	a0 := b.Param("A0", mal.VInt)
	a1 := b.Param("A1", mal.VInt)
	x1 := b.Op1("sql", "bind", mal.C(mal.StrV("sys")), mal.C(mal.StrV("t")), mal.C(mal.StrV("v")), mal.C(mal.IntV(0)))
	x2 := b.Op1("sql", "bind", mal.C(mal.StrV("sys")), mal.C(mal.StrV("t")), mal.C(mal.StrV("w")), mal.C(mal.IntV(0)))
	x3 := b.Op1("algebra", "select", x1, a0, a1, mal.C(mal.BoolV(true)), mal.C(mal.BoolV(true)))
	x4 := b.Op1("algebra", "semijoin", x2, x3)
	x5 := b.Op1("aggr", "count", x4)
	b.Do("sql", "exportValue", mal.C(mal.StrV("n")), x5)
	return opt.Optimize(b.Freeze(), opt.Options{})
}

func TestSemijoinSubsumption(t *testing.T) {
	f := newFixture(t, Config{Admission: KeepAll, Subsumption: true})
	tmpl := semijoinTemplate()
	ctx1 := f.run(t, tmpl, mal.IntV(10), mal.IntV(60))
	if resultInt(t, ctx1, 0) != 51 {
		t.Fatalf("count1 = %d", resultInt(t, ctx1, 0))
	}
	// Narrower select: its select subsumes from the cached one
	// (derivation edge), then the semijoin subsumes too.
	ctx2 := f.run(t, tmpl, mal.IntV(20), mal.IntV(30))
	if ctx2.Stats.Subsumed < 2 {
		t.Fatalf("subsumed = %d, want select+semijoin", ctx2.Stats.Subsumed)
	}
	if resultInt(t, ctx2, 0) != 11 {
		t.Fatalf("count2 = %d, want 11", resultInt(t, ctx2, 0))
	}
}

// likeTemplate counts strings matching a pattern.
func likeTemplate() *mal.Template {
	b := mal.NewBuilder("like")
	a0 := b.Param("A0", mal.VStr)
	x1 := b.Op1("sql", "bind", mal.C(mal.StrV("sys")), mal.C(mal.StrV("s")), mal.C(mal.StrV("name")), mal.C(mal.IntV(0)))
	x2 := b.Op1("algebra", "likeselect", x1, a0)
	x3 := b.Op1("aggr", "count", x2)
	b.Do("sql", "exportValue", mal.C(mal.StrV("n")), x3)
	return opt.Optimize(b.Freeze(), opt.Options{})
}

func TestLikeSubsumption(t *testing.T) {
	cat := catalog.New()
	tb := cat.CreateTable("sys", "s", []catalog.ColDef{{Name: "name", Kind: bat.KStr}})
	tb.Append([]catalog.Row{
		{"name": "forest green"},
		{"name": "light green metal"},
		{"name": "dark red"},
		{"name": "green"},
	})
	rec := New(cat, Config{Admission: KeepAll, Subsumption: true})
	tmpl := likeTemplate()
	run := func(q uint64, pat string) *mal.Ctx {
		ctx := &mal.Ctx{Cat: cat, Hook: rec, QueryID: q}
		rec.BeginQuery(q, tmpl.ID)
		defer rec.EndQuery(q)
		if err := mal.Run(ctx, tmpl, mal.StrV(pat)); err != nil {
			t.Fatal(err)
		}
		return ctx
	}
	ctx1 := run(1, "%green%")
	if ctx1.Results[0].Val.I != 3 {
		t.Fatalf("green count = %d", ctx1.Results[0].Val.I)
	}
	ctx2 := run(2, "%green metal%")
	if ctx2.Stats.Subsumed != 1 {
		t.Fatalf("like subsumption missed: %+v", ctx2.Stats)
	}
	if ctx2.Results[0].Val.I != 1 {
		t.Fatalf("green metal count = %d", ctx2.Results[0].Val.I)
	}
	// A pattern whose literal does not contain "green" must not match.
	ctx3 := run(3, "%red%")
	if ctx3.Stats.Subsumed != 0 {
		t.Fatal("red wrongly subsumed from green")
	}
}

// --- invalidation and propagation ------------------------------------

func tableOf(f *fixture) *catalog.Table { return f.cat.MustTable("sys", "t") }

// withTableU adds sys.u(k, c) — ten rows, k = 0..9, c = 10k — and a
// join index t.w → u.k, so a pool over f can hold entries over t
// alone, over u alone, and over both (the index and what is derived
// from it).
func withTableU(f *fixture) *catalog.Table {
	u := f.cat.CreateTable("sys", "u", []catalog.ColDef{
		{Name: "k", Kind: bat.KInt},
		{Name: "c", Kind: bat.KInt},
	})
	rows := make([]catalog.Row, 10)
	for i := range rows {
		rows[i] = catalog.Row{"k": int64(i), "c": int64(10 * i)}
	}
	u.Append(rows)
	tableOf(f).DefineJoinIndex("t_fk_u", "w", u, "k")
	return u
}

// uCountTemplate counts the u rows with c in [A0, A1]: entries over u
// alone.
func uCountTemplate() *mal.Template {
	b := mal.NewBuilder("ucount")
	a0 := b.Param("A0", mal.VInt)
	a1 := b.Param("A1", mal.VInt)
	x1 := b.Op1("sql", "bind", mal.C(mal.StrV("sys")), mal.C(mal.StrV("u")), mal.C(mal.StrV("c")), mal.C(mal.IntV(0)))
	x2 := b.Op1("algebra", "select", x1, a0, a1, mal.C(mal.BoolV(true)), mal.C(mal.BoolV(true)))
	x3 := b.Op1("aggr", "count", x2)
	b.Do("sql", "exportValue", mal.C(mal.StrV("n")), x3)
	return opt.Optimize(b.Freeze(), opt.Options{})
}

// fkCountTemplate counts the t rows joined to u through the join
// index: the index and the join read both tables.
func fkCountTemplate() *mal.Template {
	b := mal.NewBuilder("fkcount")
	x1 := b.Op1("sql", "bindIdxbat", mal.C(mal.StrV("sys")), mal.C(mal.StrV("t")), mal.C(mal.StrV("t_fk_u")))
	x2 := b.Op1("sql", "bind", mal.C(mal.StrV("sys")), mal.C(mal.StrV("u")), mal.C(mal.StrV("c")), mal.C(mal.IntV(0)))
	x3 := b.Op1("algebra", "join", x1, x2)
	x4 := b.Op1("aggr", "count", x3)
	b.Do("sql", "exportValue", mal.C(mal.StrV("n")), x4)
	return opt.Optimize(b.Freeze(), opt.Options{})
}

// tableGranularity drives a pool over t and u through one write to
// table (a commit or a drop): it warms entries over t alone, u alone
// and both, writes, and checks that exactly the entries reading table
// left the pool, the join index among them whichever of its two tables
// was written, and that every other entry is still there and serves its
// query without a recompute.
func tableGranularity(t *testing.T, f *fixture, table string, write func()) {
	t.Helper()
	other, otherTmpl, lo, hi := "sys.u", uCountTemplate(), int64(10), int64(50)
	written := selectCountTemplate()
	if table == "sys.u" {
		other, otherTmpl, lo, hi = "sys.t", written, 10, 20
		written = uCountTemplate()
	}
	f.run(t, written, mal.IntV(10), mal.IntV(50))
	want := resultInt(t, f.run(t, otherTmpl, mal.IntV(lo), mal.IntV(hi)), 0)
	f.run(t, fkCountTemplate())
	readers := map[uint64]bool{}
	var kept []uint64
	var index uint64
	kinds := map[string]int{}
	for _, e := range f.rec.Pool().All() {
		switch t, u := e.Reads("sys.t"), e.Reads("sys.u"); {
		case t && u:
			kinds["both"]++
		case t:
			kinds["t"]++
		case u:
			kinds["u"]++
		}
		if e.OpName == "sql.bindIdxbat" {
			index = e.ID
		}
		if e.Reads(table) {
			readers[e.ID] = true
		} else {
			kept = append(kept, e.ID)
		}
	}
	if kinds["t"] == 0 || kinds["u"] == 0 || kinds["both"] < 3 {
		t.Fatalf("pool holds %v entries by table; want some over t, u and both", kinds)
	}
	write()
	if f.rec.Pool().Get(index) != nil {
		t.Fatalf("the join index entry survived a write to %s", table)
	}
	var left []uint64
	for _, e := range f.rec.Pool().All() {
		if readers[e.ID] {
			t.Fatalf("entry %d (%s) reads %s and survived the write", e.ID, e.OpName, table)
		}
		left = append(left, e.ID)
	}
	if !slices.Equal(left, kept) {
		t.Fatalf("entries %v left after a write to %s, want %v", left, table, kept)
	}
	before := f.rec.Snapshot().Admitted
	ctx := f.run(t, otherTmpl, mal.IntV(lo), mal.IntV(hi))
	if got := resultInt(t, ctx, 0); got != want {
		t.Fatalf("count over %s = %d, want %d", other, got, want)
	}
	if ctx.Stats.Hits == 0 || f.rec.Snapshot().Admitted != before {
		t.Fatalf("query over %s recomputed after a write to %s: %d hits", other, table, ctx.Stats.Hits)
	}
}

func TestUpdateInvalidatesDependents(t *testing.T) {
	f := newFixture(t, Config{Admission: KeepAll})
	tmpl := selectCountTemplate()
	f.run(t, tmpl, mal.IntV(10), mal.IntV(20))
	if f.rec.Pool().Len() == 0 {
		t.Fatal("nothing admitted")
	}
	tableOf(f).Append([]catalog.Row{{"v": int64(15), "w": int64(1)}})
	if f.rec.Pool().Len() != 0 {
		t.Fatalf("pool not invalidated: %d entries remain", f.rec.Pool().Len())
	}
	// Next run recomputes with the new row.
	ctx := f.run(t, tmpl, mal.IntV(10), mal.IntV(20))
	if got := resultInt(t, ctx, 0); got != 12 {
		t.Fatalf("count after insert = %d, want 12", got)
	}

	// A second table: a commit reaches exactly the entries stamped with
	// its table, the join index through either of its tables.
	f = newFixture(t, Config{Admission: KeepAll})
	u := withTableU(f)
	tableGranularity(t, f, "sys.t", func() { tableOf(f).Append([]catalog.Row{{"v": int64(15), "w": int64(1)}}) })
	if got := resultInt(t, f.run(t, fkCountTemplate()), 0); got != 101 {
		t.Fatalf("join count after an insert into t = %d, want 101", got)
	}
	tableGranularity(t, f, "sys.u", func() { u.Append([]catalog.Row{{"k": int64(10), "c": int64(30)}}) })
	if got := resultInt(t, f.run(t, uCountTemplate(), mal.IntV(10), mal.IntV(50)), 0); got != 6 {
		t.Fatalf("count over u after an insert = %d, want 6", got)
	}
	tableGranularity(t, f, "sys.u", func() { u.Delete([]bat.Oid{10}) })
}

func TestDropTableInvalidates(t *testing.T) {
	f := newFixture(t, Config{Admission: KeepAll})
	tmpl := selectCountTemplate()
	f.run(t, tmpl, mal.IntV(10), mal.IntV(20))
	f.cat.DropTable("sys", "t")
	if f.rec.Pool().Len() != 0 {
		t.Fatalf("pool not cleared on drop: %d", f.rec.Pool().Len())
	}

	// With a second table, a drop takes exactly the entries stamped
	// with the dropped table.
	for _, table := range []string{"t", "u"} {
		f = newFixture(t, Config{Admission: KeepAll})
		withTableU(f)
		tableGranularity(t, f, "sys."+table, func() { f.cat.DropTable("sys", table) })
	}
}

func TestPropagationSelectInsert(t *testing.T) {
	f := newFixture(t, Config{Admission: KeepAll, Sync: SyncPropagate})
	tmpl := selectCountTemplate()
	f.run(t, tmpl, mal.IntV(10), mal.IntV(20))
	tableOf(f).Append([]catalog.Row{
		{"v": int64(15), "w": int64(1)}, // qualifies
		{"v": int64(99), "w": int64(2)}, // does not
	})
	// bind and select propagate; the scalar count (remainder of the
	// plan) is invalidated, matching §6.3's "invalidate the remainder".
	if f.rec.Pool().Len() != 2 {
		t.Fatalf("want bind+select to survive propagation, have %d entries", f.rec.Pool().Len())
	}
	// The propagated result must equal a recompute, and must HIT.
	ctx := f.run(t, tmpl, mal.IntV(10), mal.IntV(20))
	if ctx.Stats.HitsNonBind == 0 {
		t.Fatal("propagated select entry not reused")
	}
	if got := resultInt(t, ctx, 0); got != 12 {
		t.Fatalf("propagated count = %d, want 12", got)
	}
}

func TestPropagationSelectDelete(t *testing.T) {
	f := newFixture(t, Config{Admission: KeepAll, Sync: SyncPropagate})
	tmpl := selectCountTemplate()
	f.run(t, tmpl, mal.IntV(10), mal.IntV(20))
	tableOf(f).Delete([]bat.Oid{15}) // value 15, inside range
	ctx := f.run(t, tmpl, mal.IntV(10), mal.IntV(20))
	if ctx.Stats.HitsNonBind == 0 {
		t.Fatal("propagated entry not reused after delete")
	}
	if got := resultInt(t, ctx, 0); got != 10 {
		t.Fatalf("count after delete = %d, want 10", got)
	}
}

func TestPropagationInvalidatesJoins(t *testing.T) {
	f := newFixture(t, Config{Admission: KeepAll, Sync: SyncPropagate})
	tmpl := semijoinTemplate()
	f.run(t, tmpl, mal.IntV(10), mal.IntV(60))
	tableOf(f).Append([]catalog.Row{{"v": int64(15), "w": int64(1)}})
	// Semijoin is not propagatable -> must be recomputed correctly:
	// 51 original matches plus the new row.
	ctx := f.run(t, tmpl, mal.IntV(10), mal.IntV(60))
	if got := resultInt(t, ctx, 0); got != 52 {
		t.Fatalf("semijoin after propagate = %d, want 52", got)
	}
}

// TestCommitEventPerPreset pins what a commit reports under each
// preset: the event is named after the mode, the invalidate preset
// reports invalidated= only (and leaves the maintenance counters at
// zero), and the other two report what the walk maintained, how many
// of those results it changed (reached), and why the rest fell back. A
// row outside the select's range reaches the bind alone.
func TestCommitEventPerPreset(t *testing.T) {
	for _, c := range []struct {
		mode                          SyncMode
		v                             int64 // the committed row's v; the select keeps [10, 20]
		event, detail                 string
		maintained, reached, fallback int64
	}{
		{SyncInvalidate, 15, "commit.invalidate", "table=sys.t invalidated=3", 0, 0, 0},
		{SyncPropagate, 15, "commit.propagate", "table=sys.t invalidated=1 maintained=2 reached=2 fallback=1 fallback.ineligible-op=1", 2, 2, 1},
		{SyncMaintain, 15, "commit.maintain", "table=sys.t invalidated=0 maintained=3 reached=3 fallback=0", 3, 3, 0},
		{SyncMaintain, 50, "commit.maintain", "table=sys.t invalidated=0 maintained=3 reached=1 fallback=0", 3, 1, 0},
	} {
		f := newFixture(t, Config{Admission: KeepAll, Sync: c.mode})
		tr := trace.New(trace.Config{})
		f.rec.SetTracer(tr)
		f.run(t, selectCountTemplate(), mal.IntV(10), mal.IntV(20)) // bind, select, count
		tableOf(f).Append([]catalog.Row{{"v": c.v, "w": int64(1)}})
		evs := tr.Events()
		if len(evs) == 0 {
			t.Fatalf("%s: no commit event", c.event)
		}
		if ev := evs[len(evs)-1]; ev.Name != c.event || ev.Detail != c.detail {
			t.Errorf("commit event = %s %q, want %s %q", ev.Name, ev.Detail, c.event, c.detail)
		}
		st := f.rec.Snapshot()
		if st.Maintained != c.maintained || st.Reached != c.reached || st.MaintainFallback != c.fallback || (st.MaintainTime != 0) != (c.mode != SyncInvalidate) {
			t.Errorf("%s: stats maintained=%d reached=%d fallback=%d time=%v, want %d/%d/%d", c.event, st.Maintained, st.Reached, st.MaintainFallback, st.MaintainTime, c.maintained, c.reached, c.fallback)
		}
	}
}

// --- pool introspection ----------------------------------------------

func TestResetAndDump(t *testing.T) {
	f := newFixture(t, Config{Admission: KeepAll})
	tmpl := selectCountTemplate()
	f.run(t, tmpl, mal.IntV(10), mal.IntV(20))
	if f.rec.Pool().Dump() == "" {
		t.Fatal("empty dump")
	}
	f.rec.Reset()
	if f.rec.Pool().Len() != 0 || f.rec.Pool().Bytes() != 0 {
		t.Fatalf("reset incomplete: %d entries, %d bytes", f.rec.Pool().Len(), f.rec.Pool().Bytes())
	}
}

func TestTypeBreakdownAndReusedStats(t *testing.T) {
	f := newFixture(t, Config{Admission: KeepAll})
	tmpl := selectCountTemplate()
	f.run(t, tmpl, mal.IntV(10), mal.IntV(20))
	f.run(t, tmpl, mal.IntV(10), mal.IntV(20))
	rows := f.rec.Pool().TypeBreakdown()
	if len(rows) == 0 {
		t.Fatal("no breakdown rows")
	}
	foundSelect := false
	for _, r := range rows {
		if r.Op == "algebra.select" {
			foundSelect = true
			if r.Reuses == 0 || r.ReusedLines == 0 {
				t.Fatalf("select row missing reuse stats: %+v", r)
			}
		}
	}
	if !foundSelect {
		t.Fatal("select missing from breakdown")
	}
	entries, bytes := f.rec.Pool().ReusedStats()
	if entries == 0 || bytes <= 0 {
		t.Fatalf("reused stats = %d, %d", entries, bytes)
	}
}

// --- properties -------------------------------------------------------

// Property: under any eviction pressure, every surviving entry's
// lineage parents survive too (threads stay intact).
func TestLineageInvariantUnderPressure(t *testing.T) {
	fn := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		f := newFixtureQuiet(Config{
			Admission:  KeepAll,
			Eviction:   EvictionKind(rng.Intn(3)),
			MaxEntries: rng.Intn(8) + 3,
		})
		tmpl := wideTemplate()
		for i := 0; i < 12; i++ {
			f.runQuiet(tmpl, mal.IntV(int64(rng.Intn(90))))
		}
		for _, e := range f.rec.Pool().All() {
			for _, dep := range e.DependsOn {
				if p := f.rec.Pool().Get(dep); p == nil || !p.Valid() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: subsumption-enabled recycling equals naive evaluation for
// random range sequences.
func TestSubsumptionEquivalenceProperty(t *testing.T) {
	fn := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		f := newFixtureQuiet(Config{Admission: KeepAll, Subsumption: true, CombinedSubsumption: true})
		tmpl := selectCountTemplate()
		for i := 0; i < 15; i++ {
			lo := int64(rng.Intn(90))
			hi := lo + int64(rng.Intn(20))
			ctx := f.runQuiet(tmpl, mal.IntV(lo), mal.IntV(hi))
			want := min64(hi, 99) - lo + 1
			if lo > 99 {
				want = 0
			}
			if ctx.Results[0].Val.I != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// newFixtureQuiet builds the fixture without *testing.T (for quick).
func newFixtureQuiet(cfg Config, before ...catalog.UpdateListener) *fixture {
	cat := catalog.New()
	tb := cat.CreateTable("sys", "t", []catalog.ColDef{
		{Name: "v", Kind: bat.KInt},
		{Name: "w", Kind: bat.KInt},
	})
	rows := make([]catalog.Row, 100)
	for i := range rows {
		rows[i] = catalog.Row{"v": int64(i), "w": int64(i % 10)}
	}
	tb.Append(rows)
	for _, l := range before {
		cat.AddListener(l)
	}
	return &fixture{cat: cat, rec: New(cat, cfg)}
}

func (f *fixture) runQuiet(tmpl *mal.Template, params ...mal.Value) *mal.Ctx {
	f.queryID++
	ctx := &mal.Ctx{Cat: f.cat, Hook: f.rec, QueryID: f.queryID}
	f.rec.BeginQuery(f.queryID, tmpl.ID)
	defer f.rec.EndQuery(f.queryID)
	if err := mal.Run(ctx, tmpl, params...); err != nil {
		panic(err)
	}
	return ctx
}

var _ = algebra.MkDate // keep import for future date tests
