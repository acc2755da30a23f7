package recycler

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bat"
	"repro/internal/catalog"
	"repro/internal/mal"
)

// TestConcurrentMaintainStress runs reader streams against a
// maintain-mode pool while a writer commits real data batches: k
// sentinel rows (v=200) appended, then exactly those rows deleted,
// over and over. Two invariants catch mixed-version observations:
//
//  1. Counts over the stable range [lo,hi] (hi < 100) are always
//     exact — the fixture's hundred rows are never touched and the
//     sentinels never match, so a maintained entry serving a stale or
//     half-applied delta shows up as a wrong count.
//  2. Counts over the sentinel range are always 0 or k — commits are
//     atomic, a query reads one version of the table and the pool
//     serves it only entries computed at that version, so any other
//     value means a reader paired a pool result from one version with
//     data from another.
//
// CI runs this under -race -count 3 with the other Concurrent tests.
func TestConcurrentMaintainStress(t *testing.T) {
	f := newFixtureQuiet(Config{Admission: KeepAll, Sync: SyncMaintain})
	defer f.rec.Close()
	tmpl := selectCountTemplate()
	tb := f.cat.MustTable("sys", "t")

	const k = 4
	const maxCycles = 5000
	var stop atomic.Bool
	var queryID atomic.Uint64

	var upd sync.WaitGroup
	upd.Add(1)
	go func() {
		defer upd.Done()
		rows := make([]catalog.Row, k)
		for i := range rows {
			rows[i] = catalog.Row{"v": int64(200), "w": int64(0)}
		}
		for c := 0; !stop.Load() && c < maxCycles; c++ {
			first := tb.Append(rows)
			oids := make([]bat.Oid, k)
			for i := range oids {
				oids[i] = first + bat.Oid(i)
			}
			tb.Delete(oids)
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
				run := func(lo, hi int64) (int64, bool) {
					qid := queryID.Add(1)
					f.rec.BeginQuery(qid, tmpl.ID)
					ctx := &mal.Ctx{Cat: f.cat, Hook: f.rec, QueryID: qid}
					err := mal.Run(ctx, tmpl, mal.IntV(lo), mal.IntV(hi))
					f.rec.EndQuery(qid)
					if err != nil {
						errs <- err.Error()
						return 0, false
					}
					return ctx.Results[0].Val.I, true
				}
				// Invariant 1: the stable range never moves.
				lo := int64((w*13 + i*5) % 80)
				hi := lo + int64(i%17)
				if hi > 99 {
					hi = 99
				}
				got, ok := run(lo, hi)
				if !ok {
					return
				}
				if got != hi-lo+1 {
					errs <- "stable-range count drifted under maintenance"
					return
				}
				// Invariant 2: the sentinel range is atomic — all k in,
				// or all k out.
				got, ok = run(150, 250)
				if !ok {
					return
				}
				if got != 0 && got != k {
					errs <- "sentinel count observed mid-commit"
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
			t.Fatal("invalid entry left in pool")
		}
	}
}
