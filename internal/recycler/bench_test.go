package recycler

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/mal"
)

// BenchmarkRecyclerParallelHit measures the read-mostly hit path under
// parallelism: a warm pool serves the same three-instruction query
// (bind/select/count, all exact hits) from GOMAXPROCS goroutines. On
// the pre-shard design every hit serialised on one mutex, so ns/op
// rose with -cpu; with the sharded signature index and atomic reuse
// counters, hits should scale until activeMu (BeginQuery/EndQuery)
// saturates — the one recycler lock every query still takes. Writer/shard wait counters are reported so contention
// regressions show up in `go test -bench` output, not just in wall
// time. Run with -cpu 1,2,4 to see the scaling.
func BenchmarkRecyclerParallelHit(b *testing.B) {
	f := newFixtureQuiet(Config{Admission: KeepAll})
	tmpl := selectCountTemplate()
	f.runQuiet(tmpl, mal.IntV(10), mal.IntV(20)) // warm the pool

	var queryID atomic.Uint64
	queryID.Store(1000)
	base := f.rec.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			qid := queryID.Add(1)
			f.rec.BeginQuery(qid, tmpl.ID)
			ctx := &mal.Ctx{Cat: f.cat, Hook: f.rec, QueryID: qid}
			if err := mal.Run(ctx, tmpl, mal.IntV(10), mal.IntV(20)); err != nil {
				b.Error(err)
				return
			}
			f.rec.EndQuery(qid)
		}
	})
	b.StopTimer()
	s := f.rec.Snapshot()
	b.ReportMetric(float64(s.WriterLockWaits-base.WriterLockWaits)/float64(b.N), "writer-waits/op")
	b.ReportMetric(float64(s.ShardLockWaits-base.ShardLockWaits)/float64(b.N), "shard-waits/op")
}

// BenchmarkRecyclerParallelMiss is the admission-side counterpart:
// every query selects a distinct range, so each run takes the writer
// lock for admission. This is the path that intentionally still
// serialises; the benchmark pins its cost so the read/write split's
// overhead stays visible.
func BenchmarkRecyclerParallelMiss(b *testing.B) {
	f := newFixtureQuiet(Config{Admission: KeepAll, Eviction: EvictLRU, MaxEntries: 256})
	tmpl := selectCountTemplate()
	var queryID atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			qid := queryID.Add(1)
			lo := int64(qid % 97)
			f.rec.BeginQuery(qid, tmpl.ID)
			ctx := &mal.Ctx{Cat: f.cat, Hook: f.rec, QueryID: qid}
			if err := mal.Run(ctx, tmpl, mal.IntV(lo), mal.IntV(lo+1)); err != nil {
				b.Error(err)
				return
			}
			f.rec.EndQuery(qid)
		}
	})
}

// missPathSizes are the pool sizes the miss-path benchmarks run at. The
// point of the pair below is the shape of the curve: every step of a
// miss is O(log n) or O(answer) in the pool size, so ns/op at 1e4
// entries should sit within a small factor of ns/op at 1e2 — where a
// per-admission scan of the pool (or of a column's selects) would be
// 100x apart.
var missPathSizes = []int{100, 1_000, 10_000}

// BenchmarkExitAtCap measures one admission into a pool that sits at
// its entry cap, so every Exit also evicts: signature, version check, LRU
// victim off the leaf frontier, entry construction and indexing.
func BenchmarkExitAtCap(b *testing.B) {
	for _, n := range missPathSizes {
		b.Run(fmt.Sprintf("pool=%d", n), func(b *testing.B) {
			g := newExitRig(Config{Admission: KeepAll, Eviction: EvictLRU, Subsumption: true}, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if g.admit() == 0 {
					b.Fatal("admission denied")
				}
			}
		})
	}
}

var sinkEntry mal.EntryResult

// BenchmarkSubsumeSelectMiss measures Entry for a select that nothing in
// the pool answers while n-1 selects over the same column are pooled:
// the exact-match miss plus a subsumption search that comes back empty.
func BenchmarkSubsumeSelectMiss(b *testing.B) {
	for _, n := range missPathSizes {
		b.Run(fmt.Sprintf("pool=%d", n), func(b *testing.B) {
			g := newExitRig(Config{Admission: KeepAll, Eviction: EvictLRU, Subsumption: true}, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkEntry = g.miss()
			}
			if sinkEntry.Hit || sinkEntry.Rewrite != nil {
				b.Fatalf("expected a miss, got %+v", sinkEntry)
			}
		})
	}
}
