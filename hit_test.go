package repro

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/mal"
	"repro/internal/recycler"
	"repro/internal/sky"
	"repro/internal/trace"
)

// skyBoxCount is the SkyServer box COUNT: a bind → select chain →
// count plan whose every instruction is an exact pool hit once warm.
const skyBoxCount = "SELECT COUNT(*) FROM sky.photoobj WHERE ra BETWEEN 195.0 AND 215.5 AND dec BETWEEN 2.0 AND 33.0 AND mode = 1"

// warmHit returns a traced, recycling engine whose pool already holds
// every intermediate of skyBoxCount, plus the compiled statement.
func warmHit(tb testing.TB) (*Engine, *mal.Template, []mal.Value) {
	tb.Helper()
	db := sky.Generate(2000, 17)
	eng := NewEngine(db.Cat, WithTracer(trace.New(trace.Config{})), WithRecycler(recycler.Config{
		Admission: recycler.KeepAll, Subsumption: true,
	}))
	tmpl, params, err := eng.CompileSQL(skyBoxCount)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := eng.Exec(tmpl, params...); err != nil {
			tb.Fatal(err)
		}
	}
	res, _ := eng.Exec(tmpl, params...)
	if res.Stats.Hits != res.Stats.Marked || res.Stats.Marked == 0 {
		tb.Fatalf("warm run is not all hits: %+v", res.Stats)
	}
	return eng, tmpl, params
}

// BenchmarkEngineHit is a whole-query exact hit through Engine.Exec
// with the tracer on: what the executor, the recycler's probe and the
// trace recorder cost when no kernel runs. Run with -benchmem.
func BenchmarkEngineHit(b *testing.B) {
	eng, tmpl, params := warmHit(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Exec(tmpl, params...); err != nil {
			b.Fatal(err)
		}
	}
}

var (
	missDBOnce sync.Once
	missDB     *sky.DB
)

// skyOuterBox is a sky-explore-sized box over 200k objects: each axis
// alone keeps ≈4.7k rows. BenchmarkEngineMiss zooms into it.
const skyOuterBox = "SELECT COUNT(*) FROM sky.photoobj WHERE ra BETWEEN 180.0 AND 188.5 AND dec BETWEEN 10.0 AND 14.2 AND mode = 1"

// BenchmarkEngineMiss is sky-explore's recycled miss path through
// Engine.ExecSQL over 200k sky objects: the pooled box COUNT, then a
// box strictly inside it that misses every exact probe and that Entry
// rewrites onto the pooled superset — the select onto the cached
// select, the semijoin onto the cached semijoin. Each nested box is a
// window shifted by a distinct amount (under 0.5°) on both axes, so
// none repeats within 500k iterations and none holds the next: every
// one subsumes onto the outer box. Run with -benchmem.
func BenchmarkEngineMiss(b *testing.B) {
	missDBOnce.Do(func() { missDB = sky.Generate(200_000, 17) })
	eng := NewEngine(missDB.Cat, WithTracer(trace.New(trace.Config{})), WithRecycler(recycler.Config{
		Admission: recycler.KeepAll, Eviction: recycler.EvictLRU, Subsumption: true, MaxBytes: 64 << 20,
	}))
	if _, err := eng.ExecSQL(skyOuterBox); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.ExecSQL(skyOuterBox); err != nil {
			b.Fatal(err)
		}
		d := float64(i%500_000) * 1e-6
		res, err := eng.ExecSQL(fmt.Sprintf("SELECT COUNT(*) FROM sky.photoobj WHERE ra BETWEEN %.6f AND %.6f AND dec BETWEEN %.6f AND %.6f AND mode = 1", 181+d, 186+d, 11+d, 13.5+d))
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.Subsumed == 0 {
			b.Fatalf("nested box %d was not subsumed: %+v", i, res.Stats)
		}
	}
}

// hitAllocCeiling is the measured allocation count of one whole-query
// hit (BenchmarkEngineHit) plus a margin of two.
const hitAllocCeiling = 9

// TestHitAllocations pins what a whole-query hit allocates, so a
// regression on the hit path shows up as a test failure.
func TestHitAllocations(t *testing.T) {
	eng, tmpl, params := warmHit(t)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := eng.Exec(tmpl, params...); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > hitAllocCeiling {
		t.Fatalf("a whole-query hit allocates %.0f objects, ceiling %d", allocs, hitAllocCeiling)
	}
	t.Logf("whole-query hit: %.0f allocs", allocs)
}
