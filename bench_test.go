package repro_test

// One testing.B benchmark per table/figure of the paper's evaluation
// (Sections 7 and 8). Each benchmark regenerates the experiment at a
// laptop-scale configuration and reports the headline metric through
// b.ReportMetric, so `go test -bench=. -benchmem` reproduces the
// paper's measurement surface, timings included; nothing gates them.
// The count columns of the same tables are pinned by internal/bench's
// TestPaperGoldens, and docs/ARCHITECTURE.md indexes the experiments
// by paper section.

import (
	"context"
	"math/rand"
	"runtime/pprof"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/bench"
	"repro/internal/mal"
	"repro/internal/recycler"
	"repro/internal/sky"
	"repro/internal/tpch"
)

const benchSF = 0.005

var (
	benchTpchDB *tpch.DB
	benchSkyDB  *sky.DB
)

func tpchDB() *tpch.DB {
	if benchTpchDB == nil {
		benchTpchDB = tpch.Generate(benchSF, 7)
	}
	return benchTpchDB
}

func skyDB() *sky.DB {
	if benchSkyDB == nil {
		benchSkyDB = sky.Generate(20000, 17)
	}
	return benchSkyDB
}

// BenchmarkTable2 regenerates Table II (per-query commonality and
// recycler savings).
func BenchmarkTable2(b *testing.B) {
	db := tpchDB()
	for i := 0; i < b.N; i++ {
		rows := bench.Table2(db, 5)
		if len(rows) != 22 {
			b.Fatal("incomplete table")
		}
	}
}

func microBench(b *testing.B, qnum int) {
	db := tpchDB()
	var firstRatio, lastRatio float64
	for i := 0; i < b.N; i++ {
		pts := bench.MicroProfile(db, qnum, 10, 3)
		firstRatio = pts[0].HitRatio
		lastRatio = pts[9].HitRatio
	}
	b.ReportMetric(firstRatio, "hit-ratio-first")
	b.ReportMetric(lastRatio, "hit-ratio-last")
}

// BenchmarkFig4a: Q11 intra-query profile.
func BenchmarkFig4a(b *testing.B) { microBench(b, 11) }

// BenchmarkFig4b: Q18 inter-query profile.
func BenchmarkFig4b(b *testing.B) { microBench(b, 18) }

// BenchmarkFig5a: Q19 mixed intra/inter profile.
func BenchmarkFig5a(b *testing.B) { microBench(b, 19) }

// BenchmarkFig5b: Q14 limited-overlap (overhead) profile.
func BenchmarkFig5b(b *testing.B) { microBench(b, 14) }

// BenchmarkFig6 reports the recycled-vs-naive speedup for the four
// micro-benchmark queries.
func BenchmarkFig6(b *testing.B) {
	db := tpchDB()
	var speedup float64
	for i := 0; i < b.N; i++ {
		rows := bench.Fig6(db, []int{11, 18, 19, 14}, 10, 3)
		q18 := rows[1]
		speedup = float64(q18.NaiveAvg) / float64(q18.RecycleAvg)
	}
	b.ReportMetric(speedup, "q18-speedup")
}

// BenchmarkFig7 sweeps the credit admission policy on per-query
// batches (Q11, Q18, Q19).
func BenchmarkFig7(b *testing.B) {
	db := tpchDB()
	qm := tpch.QueryMap()
	for i := 0; i < b.N; i++ {
		for _, qn := range []int{11, 18, 19} {
			d := qm[qn]
			items := make([]bench.WorkItem, 0, 10)
			rng := rand.New(rand.NewSource(3))
			for j := 0; j < 10; j++ {
				items = append(items, bench.WorkItem{QNum: qn, Templ: d.Templ, Params: d.Params(rng)})
			}
			bench.AdmissionSweep(db, items, 10)
		}
	}
}

// BenchmarkFig8and9 sweeps admission policies on the 200-query mixed
// batch, reporting adapt's hit ratio and memory saving vs keepall.
func BenchmarkFig8and9(b *testing.B) {
	db := tpchDB()
	var adaptHit, memSaving float64
	for i := 0; i < b.N; i++ {
		items := bench.MixedWorkload(20, 11)
		pts := bench.AdmissionSweep(db, items, 5)
		var keepMem int64
		for _, p := range pts {
			if p.Policy == "keepall" {
				keepMem = p.TotalMem
			}
			if p.Policy == "adapt" && p.Credits == 3 {
				adaptHit = p.HitRatioToKeep
				if keepMem > 0 {
					memSaving = 1 - float64(p.TotalMem)/float64(keepMem)
				}
			}
		}
	}
	b.ReportMetric(adaptHit, "adapt3-hit-ratio")
	b.ReportMetric(memSaving, "adapt3-mem-saving")
}

func evictionBench(b *testing.B, limit string) {
	db := tpchDB()
	var worst float64
	for i := 0; i < b.N; i++ {
		items := bench.MixedWorkload(20, 13)
		curves := bench.EvictionSweep(db, items, limit, []int{20, 40, 60, 80})
		for _, c := range curves {
			if c.Policy != "nolimit" && c.LimitPct == 20 && c.TimeRatio > worst {
				worst = c.TimeRatio
			}
		}
	}
	b.ReportMetric(worst, "worst-time-ratio@20%")
}

// BenchmarkFig10: eviction policies under cache-line limits.
func BenchmarkFig10(b *testing.B) { evictionBench(b, "entries") }

// BenchmarkFig11: eviction policies under memory limits.
func BenchmarkFig11(b *testing.B) { evictionBench(b, "memory") }

func updatesBench(b *testing.B, k int) {
	for i := 0; i < b.N; i++ {
		series := bench.UpdatesSweep(benchSF, 7, bench.MixedWorkload(10, 17), k)
		if len(series) != 3 {
			b.Fatal("missing strategies")
		}
	}
}

// BenchmarkFig12: recycling with updates every 20 queries.
func BenchmarkFig12(b *testing.B) { updatesBench(b, 20) }

// BenchmarkFig13: recycling with an update block after every query.
func BenchmarkFig13(b *testing.B) { updatesBench(b, 1) }

// BenchmarkFig14 runs the SkyServer batch splits and reports the
// keepall speedup over naive execution.
func BenchmarkFig14(b *testing.B) {
	db := skyDB()
	var speedup float64
	for i := 0; i < b.N; i++ {
		w := sky.SampleWorkload(db, 100, 42)
		row := bench.SkyBatch(db, w, 1, 42)
		speedup = float64(row.Naive) / float64(row.KeepAll)
	}
	b.ReportMetric(speedup, "keepall-speedup")
}

// BenchmarkTable3 regenerates the pool-content breakdown.
func BenchmarkTable3(b *testing.B) {
	db := skyDB()
	for i := 0; i < b.N; i++ {
		rows := bench.Table3(db, sky.SampleWorkload(db, 100, 42))
		if len(rows) == 0 {
			b.Fatal("empty breakdown")
		}
	}
}

func subsumeBench(b *testing.B, k, seeds int) {
	db := skyDB()
	var selRatio, algMs float64
	for i := 0; i < b.N; i++ {
		mb := sky.GenMicroBench(k, seeds, 0.02, 7)
		pts := bench.SkySubsume(db, mb)
		var n int
		selRatio, algMs = 0, 0
		for _, p := range pts {
			if p.Seed && p.Combined {
				selRatio += p.SelRatio
				algMs += float64(p.AlgTime.Microseconds()) / 1000
				n++
			}
		}
		if n > 0 {
			selRatio /= float64(n)
			algMs /= float64(n)
		}
	}
	b.ReportMetric(selRatio, "sel-time-ratio")
	b.ReportMetric(algMs, "alg-ms")
}

// BenchmarkFig15B2: combined subsumption with k=2 covering queries.
func BenchmarkFig15B2(b *testing.B) { subsumeBench(b, 2, 20) }

// BenchmarkFig15B4: combined subsumption with k=4 covering queries.
func BenchmarkFig15B4(b *testing.B) { subsumeBench(b, 4, 12) }

// --- core operation micro-benchmarks ------------------------------------

// BenchmarkRecyclerMatchOverhead measures the per-instruction overhead
// of the recycler's matching path (the paper targets < 1 microsecond).
func BenchmarkRecyclerMatchOverhead(b *testing.B) {
	db := tpchDB()
	d := tpch.QueryMap()[18]
	r := bench.NewRecycled(db.Cat, recycler.Config{Admission: recycler.KeepAll})
	defer r.Close()
	rng := rand.New(rand.NewSource(3))
	params := d.Params(rng)
	r.MustRun(d.Templ, params...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.MustRun(d.Templ, params...)
	}
}

// BenchmarkNaiveQ1 and BenchmarkRecycledQ1 compare raw engine speed.
func BenchmarkNaiveQ1(b *testing.B) {
	db := tpchDB()
	d := tpch.QueryMap()[1]
	r := bench.NewNaive(db.Cat, false)
	rng := rand.New(rand.NewSource(3))
	params := d.Params(rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.MustRun(d.Templ, params...)
	}
}

func BenchmarkRecycledQ1(b *testing.B) {
	db := tpchDB()
	d := tpch.QueryMap()[1]
	r := bench.NewRecycled(db.Cat, recycler.Config{Admission: recycler.KeepAll})
	defer r.Close()
	rng := rand.New(rand.NewSource(3))
	params := d.Params(rng)
	r.MustRun(d.Templ, params...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.MustRun(d.Templ, params...)
	}
}

// --- ablation benches (design-choice comparisons from DESIGN.md) ---------

// BenchmarkAblationSyncModes compares immediate invalidation against
// delta propagation on a volatile mixed workload (paper §6).
func BenchmarkAblationSyncModes(b *testing.B) {
	var propGain float64
	for i := 0; i < b.N; i++ {
		rows := bench.SyncAblation(benchSF, 7, bench.MixedWorkload(10, 17), 10)
		if rows[0].Hits > 0 {
			propGain = float64(rows[1].Hits) / float64(rows[0].Hits)
		}
	}
	b.ReportMetric(propGain, "propagate-hit-gain")
}

// BenchmarkAblationEvictionPolicies compares LRU, BP and HP head to
// head under a tight memory limit.
func BenchmarkAblationEvictionPolicies(b *testing.B) {
	db := tpchDB()
	var spread float64
	for i := 0; i < b.N; i++ {
		items := bench.MixedWorkload(10, 13)
		curves := bench.EvictionSweep(db, items, "memory", []int{30})
		best, worst := 2.0, 0.0
		for _, c := range curves {
			if c.Policy == "nolimit" || c.LimitPct != 30 {
				continue
			}
			if c.TimeRatio < best {
				best = c.TimeRatio
			}
			if c.TimeRatio > worst {
				worst = c.TimeRatio
			}
		}
		spread = worst - best
	}
	b.ReportMetric(spread, "policy-time-spread")
}

// BenchmarkAblationSubsumption measures what turning subsumption off
// costs on the overlap-heavy SkyServer footprint workload.
func BenchmarkAblationSubsumption(b *testing.B) {
	db := skyDB()
	var gain float64
	for i := 0; i < b.N; i++ {
		w := sky.SampleWorkload(db, 60, 21)
		run := func(sub bool) time.Duration {
			r := bench.NewRecycled(db.Cat, recycler.Config{Admission: recycler.KeepAll, Subsumption: sub})
			defer r.Close()
			var total time.Duration
			for _, q := range w.Batch {
				total += r.MustRun(w.Template(q.Kind), q.Params...).Stats.Elapsed
			}
			return total
		}
		off := run(false)
		on := run(true)
		gain = float64(off) / float64(on)
	}
	b.ReportMetric(gain, "subsumption-speedup")
}

// BenchmarkThroughput reports sustained queries/second with and
// without recycling on the mixed batch (the paper's throughput claim).
func BenchmarkThroughput(b *testing.B) {
	db := tpchDB()
	var gain float64
	for i := 0; i < b.N; i++ {
		rows := bench.Throughput(db, bench.MixedWorkload(10, 23))
		gain = rows[1].QPS / rows[0].QPS
	}
	b.ReportMetric(gain, "throughput-gain")
}

// BenchmarkTPCHMix mirrors the repo benchmark's tpch-mix workload in
// process: the ten-query mixed batch (Q4, 7, 8, 11, 12, 16, 18, 19,
// 21, 22) at SF 0.05 over a KeepAll + LRU + subsumption pool capped at
// 256 MB, two Sessions running alternate queries of each shuffled
// cycle, after one warm-up instance of every query. Each query runs
// under a pprof label naming it, so a CPU profile splits by query:
// `go tool pprof -tags profiles/tpch.pprof` (scripts/profile.sh). One
// op is one query.
func BenchmarkTPCHMix(b *testing.B) {
	if benchMixDB == nil {
		benchMixDB = tpch.Generate(0.05, 7)
	}
	qm := tpch.QueryMap()
	nums := []int{4, 7, 8, 11, 12, 16, 18, 19, 21, 22}
	type op struct {
		d      *tpch.QueryDef
		params []mal.Value
	}
	cycle := func(rng *rand.Rand) []op {
		ops := make([]op, 0, len(nums))
		for _, n := range nums {
			ops = append(ops, op{qm[n], qm[n].Params(rng)})
		}
		rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
		return ops
	}
	eng := repro.NewEngine(benchMixDB.Cat, repro.WithRecycler(recycler.Config{
		Admission: recycler.KeepAll, Eviction: recycler.EvictLRU, Subsumption: true, MaxBytes: 256 << 20,
	}))
	defer eng.Recycler().Close()
	rng := rand.New(rand.NewSource(41))
	warm := eng.NewSession()
	for _, o := range cycle(rand.New(rand.NewSource(40))) {
		if _, err := warm.Exec(o.d.Templ, o.params...); err != nil {
			b.Fatal(err)
		}
	}
	ops := make([]op, 0, b.N+len(nums))
	for len(ops) < b.N {
		ops = append(ops, cycle(rng)...)
	}
	ops = ops[:b.N]
	b.ResetTimer()
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			s := eng.NewSession()
			for i := c; i < len(ops); i += 2 {
				o := ops[i]
				var err error
				pprof.Do(context.Background(), pprof.Labels("query", o.d.Name), func(context.Context) {
					_, err = s.Exec(o.d.Templ, o.params...)
				})
				if err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		b.Fatal(err)
	}
}

var benchMixDB *tpch.DB
