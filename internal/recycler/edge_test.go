package recycler

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/mal"
	"repro/internal/opt"
)

// deepChainTemplate builds a long dependency chain so eviction must
// peel leaf frontiers iteratively: bind -> select -> reverse ->
// reverse -> ... -> count.
func deepChainTemplate(depth int) *mal.Template {
	b := mal.NewBuilder("deep")
	a0 := b.Param("A0", mal.VInt)
	x := b.Op1("sql", "bind", mal.C(mal.StrV("sys")), mal.C(mal.StrV("t")), mal.C(mal.StrV("v")), mal.C(mal.IntV(0)))
	x = b.Op1("algebra", "select", x, a0, mal.C(mal.IntV(1000)), mal.C(mal.BoolV(true)), mal.C(mal.BoolV(true)))
	for i := 0; i < depth; i++ {
		x = b.Op1("bat", "reverse", x)
	}
	cnt := b.Op1("aggr", "count", x)
	b.Do("sql", "exportValue", mal.C(mal.StrV("n")), cnt)
	return opt.Optimize(b.Freeze(), opt.Options{})
}

func TestEvictionPeelsLeafFrontiers(t *testing.T) {
	f := newFixture(t, Config{Admission: KeepAll, Eviction: EvictLRU, MaxEntries: 5})
	tmpl := deepChainTemplate(6) // each instance needs ~9 entries > limit
	// Run several instances; the pool must stay within the limit and
	// the lineage invariant must hold throughout.
	for i := 0; i < 5; i++ {
		f.run(t, tmpl, mal.IntV(int64(i*10)))
		if f.rec.Pool().Len() > 5+9 { // current query pins its own chain
			t.Fatalf("pool exploded: %d entries", f.rec.Pool().Len())
		}
		for _, e := range f.rec.Pool().All() {
			for _, dep := range e.DependsOn {
				if f.rec.Pool().Get(dep) == nil {
					t.Fatal("lineage broken during frontier eviction")
				}
			}
		}
	}
}

func TestSingleQueryFillsPoolException(t *testing.T) {
	// Footnote 3: when one query's own intermediates exceed the pool,
	// protection is lifted for leaves (except the pending admission's
	// arguments) so execution can proceed.
	f := newFixture(t, Config{Admission: KeepAll, Eviction: EvictLRU, MaxEntries: 3})
	tmpl := deepChainTemplate(8)
	ctx := f.run(t, tmpl, mal.IntV(1))
	if ctx.Results[0].Val.I != 99 {
		t.Fatalf("result = %d, want 99", ctx.Results[0].Val.I)
	}
	if f.rec.Pool().Len() > 3+2 {
		t.Fatalf("pool = %d entries, limit 3", f.rec.Pool().Len())
	}
}

// TestMaxCombinedCapRespected: with more overlapping pieces pooled
// than maxCombined, Algorithm 2 is fed exactly maxCombined of them, and
// the wide target still gets the right answer.
func TestMaxCombinedCapRespected(t *testing.T) {
	f := newFixture(t, Config{Admission: KeepAll, Subsumption: true, CombinedSubsumption: true})
	tmpl := selectCountTemplate()
	// Flood the pool with overlapping small selects, each reaching past
	// the ones before it, so none is subsumed and every one is admitted.
	for i := 0; i < 2*maxCombined+4; i++ {
		f.run(t, tmpl, mal.IntV(int64(i*2)), mal.IntV(int64(i*2+6)))
	}
	var colKey string
	for _, e := range f.rec.Pool().All() {
		if e.OpName == "algebra.select" {
			colKey = e.Args[0].Key()
		}
	}
	target := algebra.Range{Lo: int64(2), Hi: int64(70), IncLo: true, IncHi: true}
	f.rec.mu.Lock()
	pieces := len(f.rec.pool.SelectOverlaps(colKey, target, f.cat))
	R := f.rec.overlapSnaps(f.cat, colKey, target)
	f.rec.mu.Unlock()
	if pieces <= maxCombined {
		t.Fatalf("the pool holds %d pieces overlapping the target, want more than %d", pieces, maxCombined)
	}
	if len(R) != maxCombined {
		t.Fatalf("Algorithm 2 was fed %d of %d overlapping pieces, want %d", len(R), pieces, maxCombined)
	}
	// The wide target: the search must stay bounded and still produce a
	// correct answer (whether combined fires or not).
	ctx := f.run(t, tmpl, mal.IntV(2), mal.IntV(70))
	if ctx.Results[0].Val.I != 69 {
		t.Fatalf("count = %d, want 69", ctx.Results[0].Val.I)
	}
}

func TestCombinedSubsumptionBudgetTerminates(t *testing.T) {
	// Adversarial pool: many cheap fully-overlapping selects used to
	// explode the Algorithm 2 frontier before mask deduplication; the
	// search must stay fast and correct.
	f := newFixture(t, Config{
		Admission: KeepAll, Subsumption: true, CombinedSubsumption: true,
	})
	tmpl := selectCountTemplate()
	for i := 0; i < 16; i++ {
		f.run(t, tmpl, mal.IntV(int64(i)), mal.IntV(int64(i+50)))
	}
	ctx := f.run(t, tmpl, mal.IntV(0), mal.IntV(99))
	if ctx.Results[0].Val.I != 100 {
		t.Fatalf("count = %d, want 100", ctx.Results[0].Val.I)
	}
}

// Property: credits never go negative and blocked instructions never
// admit, across random workloads and policies.
func TestCreditInvariantProperty(t *testing.T) {
	fn := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		kind := []AdmissionKind{Credit, Adapt}[rng.Intn(2)]
		credits := rng.Intn(4) + 1
		f := newFixtureQuiet(Config{Admission: kind, Credits: credits})
		tmpl := selectCountTemplate()
		for i := 0; i < 12; i++ {
			lo := int64(rng.Intn(50))
			f.runQuiet(tmpl, mal.IntV(lo), mal.IntV(lo+int64(rng.Intn(20))))
			for _, s := range f.rec.adm.state {
				if s.credits < 0 {
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

// Property: pool byte accounting equals the sum over entries.
func TestPoolAccountingProperty(t *testing.T) {
	fn := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		f := newFixtureQuiet(Config{
			Admission:  KeepAll,
			Eviction:   EvictionKind(rng.Intn(3)),
			MaxEntries: rng.Intn(10) + 2,
		})
		tmpl := wideTemplate()
		for i := 0; i < 10; i++ {
			f.runQuiet(tmpl, mal.IntV(int64(rng.Intn(90))))
		}
		var sum int64
		for _, e := range f.rec.Pool().All() {
			sum += e.Bytes
		}
		return sum == f.rec.Pool().Bytes()
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidationCountsTracked(t *testing.T) {
	f := newFixture(t, Config{Admission: KeepAll})
	tmpl := selectCountTemplate()
	f.run(t, tmpl, mal.IntV(10), mal.IntV(20))
	before := f.rec.Pool().Invalidated
	tableOf(f).Append([]catalog.Row{{"v": int64(1), "w": int64(1)}})
	if f.rec.Pool().Invalidated <= before {
		t.Fatal("invalidation counter not bumped")
	}
}

func TestSubsumptionDisabledMeansNoRewrites(t *testing.T) {
	f := newFixture(t, Config{Admission: KeepAll, Subsumption: false})
	tmpl := selectCountTemplate()
	f.run(t, tmpl, mal.IntV(10), mal.IntV(60))
	ctx := f.run(t, tmpl, mal.IntV(20), mal.IntV(30))
	if ctx.Stats.Subsumed != 0 || ctx.Stats.Combined != 0 {
		t.Fatalf("subsumption fired while disabled: %+v", ctx.Stats)
	}
}

func TestOversizedResultNeverAdmitted(t *testing.T) {
	f := newFixture(t, Config{Admission: KeepAll, Eviction: EvictLRU, MaxBytes: 128})
	tmpl := selectCountTemplate()
	f.run(t, tmpl, mal.IntV(0), mal.IntV(99)) // result far larger than 128B
	for _, e := range f.rec.Pool().All() {
		if e.Bytes > 128 {
			t.Fatalf("oversized entry admitted: %d bytes", e.Bytes)
		}
	}
}
