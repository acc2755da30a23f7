package recycler

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bat"
	"repro/internal/catalog"
	"repro/internal/mal"
)

// TestConcurrentQueryStreams runs several goroutines sharing one
// recycler, each executing the same template with overlapping
// parameters, and verifies results stay correct and the pool stays
// consistent. Run with -race to exercise the locking.
func TestConcurrentQueryStreams(t *testing.T) {
	f := newFixtureQuiet(Config{Admission: KeepAll, Subsumption: true, CombinedSubsumption: true})
	tmpl := selectCountTemplate()
	var queryID atomic.Uint64

	const workers = 8
	const perWorker = 30
	var wg sync.WaitGroup
	errs := make(chan string, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				lo := int64((w*7 + i) % 80)
				hi := lo + int64(i%15)
				qid := queryID.Add(1)
				f.rec.BeginQuery(qid, tmpl.ID)
				ctx := &mal.Ctx{Cat: f.cat, Hook: f.rec, QueryID: qid}
				err := mal.Run(ctx, tmpl, mal.IntV(lo), mal.IntV(hi))
				f.rec.EndQuery(qid)
				if err != nil {
					errs <- err.Error()
					return
				}
				want := hi - lo + 1
				if hi > 99 {
					want = 100 - lo
				}
				if got := ctx.Results[0].Val.I; got != want {
					errs <- "wrong count"
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	// Pool invariants hold after the storm.
	for _, e := range f.rec.Pool().All() {
		if !e.Valid() {
			t.Fatal("invalid entry in pool")
		}
		for _, dep := range e.DependsOn {
			if f.rec.Pool().Get(dep) == nil {
				t.Fatal("dangling lineage edge")
			}
		}
	}
}

// TestConcurrentWithEviction stresses the locked eviction path.
func TestConcurrentWithEviction(t *testing.T) {
	f := newFixtureQuiet(Config{Admission: KeepAll, Eviction: EvictLRU, MaxEntries: 10})
	tmpl := selectCountTemplate()
	var queryID atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				lo := int64((w*13 + i*3) % 90)
				qid := queryID.Add(1)
				f.rec.BeginQuery(qid, tmpl.ID)
				ctx := &mal.Ctx{Cat: f.cat, Hook: f.rec, QueryID: qid}
				if err := mal.Run(ctx, tmpl, mal.IntV(lo), mal.IntV(lo+5)); err != nil {
					panic(err)
				}
				f.rec.EndQuery(qid)
			}
		}(w)
	}
	wg.Wait()
	if f.rec.Pool().Len() > 10+3 { // small slack for in-flight pins
		t.Fatalf("pool size %d far exceeds limit", f.rec.Pool().Len())
	}
}

// TestConcurrentEntryExitUpdateStress hammers the three entry points
// the sharded design must keep consistent — Entry/Exit from many query
// streams plus the commit walk — on one shared recycler. The writer
// commits real statements that no query's answer depends on (a row
// outside every queried range, appended and deleted again), so every
// result stays deterministic while the version compare, invalidation
// and eviction paths all fire under contention. Run with -race.
func TestConcurrentEntryExitUpdateStress(t *testing.T) {
	f := newFixtureQuiet(Config{
		Admission: KeepAll, Subsumption: true, CombinedSubsumption: true,
		Eviction: EvictLRU, MaxEntries: 32,
	})
	tmpl := selectCountTemplate()
	tb := f.cat.MustTable("sys", "t")
	var queryID atomic.Uint64
	var stop atomic.Bool

	// Updater: commits move the table's version concurrently with the
	// query streams.
	var upd sync.WaitGroup
	upd.Add(1)
	go func() {
		defer upd.Done()
		for c := 0; !stop.Load() && c < 2000; c++ {
			first := tb.Append([]catalog.Row{{"v": int64(1000 + c), "w": int64(0)}})
			tb.Delete([]bat.Oid{first})
		}
	}()

	const workers = 8
	const perWorker = 40
	var wg sync.WaitGroup
	errs := make(chan string, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				lo := int64((w*11 + i*3) % 80)
				hi := lo + int64(i%13)
				qid := queryID.Add(1)
				f.rec.BeginQuery(qid, tmpl.ID)
				ctx := &mal.Ctx{Cat: f.cat, Hook: f.rec, QueryID: qid}
				err := mal.Run(ctx, tmpl, mal.IntV(lo), mal.IntV(hi))
				f.rec.EndQuery(qid)
				if err != nil {
					errs <- err.Error()
					return
				}
				want := hi - lo + 1
				if hi > 99 {
					want = 100 - lo
				}
				if got := ctx.Results[0].Val.I; got != want {
					errs <- "wrong count under update stress"
					return
				}
			}
		}(w)
	}
	wg.Wait()
	stop.Store(true)
	upd.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if f.rec.ActiveQueries() != 0 {
		t.Fatal("active queries leaked")
	}
	for _, e := range f.rec.Pool().All() {
		if !e.Valid() {
			t.Fatal("invalid entry in pool")
		}
		for _, dep := range e.DependsOn {
			if f.rec.Pool().Get(dep) == nil {
				t.Fatal("dangling lineage edge")
			}
		}
	}
}

// TestCombinedSubsumptionConcurrentInvalidation is the regression test
// for the unlocked combined-subsumption execution: an invalidation
// that lands between the candidate snapshot and the re-validation
// must abort the combined hit, so the stale merged result is neither
// served nor admitted — otherwise a later query would read pre-update
// data from an entry the invalidation pass could no longer see.
func TestCombinedSubsumptionConcurrentInvalidation(t *testing.T) {
	f := newFixtureQuiet(Config{Admission: KeepAll, Subsumption: true, CombinedSubsumption: true})
	tmpl := selectCountTemplate()
	// Two overlapping pieces covering [4,8] only jointly.
	f.runQuiet(tmpl, mal.IntV(3), mal.IntV(7))
	f.runQuiet(tmpl, mal.IntV(5), mal.IntV(15))

	// The hook fires after the piecewise selects ran but before the
	// re-validation reacquires the writer lock: commit a row (v=5)
	// that invalidates every cached piece in that window.
	var fired atomic.Bool
	f.rec.testBeforeRevalidate = func() {
		if fired.CompareAndSwap(false, true) {
			f.cat.MustTable("sys", "t").Append([]catalog.Row{{"v": int64(5), "w": int64(0)}})
		}
	}
	ctx := f.runQuiet(tmpl, mal.IntV(4), mal.IntV(8))
	f.rec.testBeforeRevalidate = nil
	if !fired.Load() {
		t.Fatal("combined subsumption did not reach the execution phase")
	}
	// The straddling query must have fallen back to regular execution
	// over its pre-update operand: correct for its snapshot (5 rows),
	// and not counted as a combined hit.
	if ctx.Stats.Combined != 0 {
		t.Fatal("stale combined result was served despite concurrent invalidation")
	}
	if got := ctx.Results[0].Val.I; got != 5 {
		t.Fatalf("straddling query count = %d, want 5", got)
	}
	// Nothing the straddling query computed may have outlived the
	// invalidation pass.
	if n := f.rec.Pool().Len(); n != 0 {
		t.Fatalf("straddling query admitted %d entries past the invalidation", n)
	}
	// A fresh query sees the committed row — it would read 5 instead
	// of 6 if the stale merge had been resurrected into the pool.
	ctx2 := f.runQuiet(tmpl, mal.IntV(4), mal.IntV(8))
	if got := ctx2.Results[0].Val.I; got != 6 {
		t.Fatalf("post-update count = %d, want 6 (stale pool entry served?)", got)
	}
}

// TestExitDuplicateSignatureRefreshesPin: when Exit finds the
// signature already admitted (a concurrent query beat this one to it),
// the early return must refresh the surviving entry's recency and pin
// it for the current query — otherwise the entry this query is about
// to depend on is the immediate LRU victim.
func TestExitDuplicateSignatureRefreshesPin(t *testing.T) {
	f := newFixtureQuiet(Config{Admission: KeepAll})
	tmpl := selectCountTemplate()
	f.runQuiet(tmpl, mal.IntV(10), mal.IntV(20))

	var bindEntry *Entry
	for _, e := range f.rec.Pool().All() {
		if e.OpName == "sql.bind" {
			bindEntry = e
		}
	}
	if bindEntry == nil {
		t.Fatal("bind entry not admitted")
	}
	tick0 := bindEntry.LastUseTick.Load()

	const qid = 999
	f.rec.BeginQuery(qid, tmpl.ID)
	defer f.rec.EndQuery(qid)
	ctx := &mal.Ctx{Cat: f.cat, Hook: f.rec, QueryID: qid, Template: tmpl}
	in := &mal.Instr{Module: "sql", Op: "bind"}
	args := []mal.Value{mal.StrV("sys"), mal.StrV("t"), mal.StrV("v"), mal.IntV(0)}
	id := f.rec.Exit(ctx, 0, in, args, bindEntry.Result, 0, nil)
	if id != bindEntry.ID {
		t.Fatalf("duplicate admission returned id %d, want existing %d", id, bindEntry.ID)
	}
	if got := bindEntry.pinnedQuery.Load(); got != qid {
		t.Fatalf("existing entry pinned by %d, want %d", got, qid)
	}
	if bindEntry.LastUseTick.Load() <= tick0 {
		t.Fatal("existing entry's recency not refreshed on duplicate admission")
	}
}

// TestConcurrentPoolObservers is the regression test for the class of
// violation reprolint's lockorder analyzer found across bench,
// examples and cmds: Pool accessors (Len, Bytes, Dump, TypeBreakdown,
// ReusedStats) called without the writer lock while queries mutate
// the pool. Observers now go through the locked Recycler wrappers;
// under -race this test fails if any wrapper loses its lock.
func TestConcurrentPoolObservers(t *testing.T) {
	f := newFixtureQuiet(Config{Admission: KeepAll, Eviction: EvictLRU, MaxEntries: 8})
	tmpl := selectCountTemplate()
	var queryID atomic.Uint64
	stop := make(chan struct{})

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				lo := int64((w*11 + i*5) % 90)
				qid := queryID.Add(1)
				f.rec.BeginQuery(qid, tmpl.ID)
				ctx := &mal.Ctx{Cat: f.cat, Hook: f.rec, QueryID: qid}
				if err := mal.Run(ctx, tmpl, mal.IntV(lo), mal.IntV(lo+4)); err != nil {
					panic(err)
				}
				f.rec.EndQuery(qid)
			}
		}(w)
	}

	var obs sync.WaitGroup
	obs.Add(1)
	go func() {
		defer obs.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if f.rec.PoolLen() < 0 || f.rec.PoolBytes() < 0 {
				panic("negative pool size")
			}
			entries, bytes := f.rec.PoolReusedStats()
			if entries < 0 || bytes < 0 {
				panic("negative reuse stats")
			}
			_ = f.rec.PoolTypeBreakdown()
			_ = f.rec.DumpPool()
		}
	}()

	wg.Wait()
	close(stop)
	obs.Wait()
}
