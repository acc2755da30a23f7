package recycler

import (
	"testing"

	"repro/internal/bat"
	"repro/internal/catalog"
	"repro/internal/mal"
)

// TestStaleAdmissionRefusedAfterUpdate covers the commit/invalidation
// race window: a query that began before a DML commit may hold
// pre-update operands, so its intermediates must not enter the pool
// after the update's invalidation pass already ran — otherwise the
// stale result would be served to every later query.
func TestStaleAdmissionRefusedAfterUpdate(t *testing.T) {
	f := newFixture(t, Config{Admission: KeepAll})
	tmpl := selectCountTemplate()

	// Query 1 begins, then an update commits mid-flight (before the
	// query's intermediates reach recycleExit).
	f.queryID++
	qid := f.queryID
	ctx := &mal.Ctx{Cat: f.cat, Hook: f.rec, QueryID: qid, Workers: 1}
	f.rec.BeginQuery(qid, tmpl.ID)
	f.cat.MustTable("sys", "t").Append([]catalog.Row{{"v": int64(1000), "w": int64(0)}})
	if err := mal.Run(ctx, tmpl, mal.IntV(0), mal.IntV(50)); err != nil {
		t.Fatal(err)
	}
	f.rec.EndQuery(qid)
	if n := f.rec.Pool().Len(); n != 0 {
		t.Fatalf("pool admitted %d entries from a query that straddled an update", n)
	}

	// A query that begins after the commit admits normally again.
	ctx2 := f.run(t, tmpl, mal.IntV(0), mal.IntV(50))
	if f.rec.Pool().Len() == 0 {
		t.Fatal("post-update query did not admit")
	}
	if ctx2.Results[0].Val.I != 51 {
		t.Fatalf("count = %d, want 51", ctx2.Results[0].Val.I)
	}
}

// TestStaleHitRefusedAfterUpdate covers the hit side of the epoch
// guard: under SyncPropagate a commit refreshes pool entries in place,
// so a query that began before the commit must not be served the
// post-update result (it may be inconsistent with operands the query
// bound pre-commit). The entry stays usable for queries that begin
// after the commit.
func TestStaleHitRefusedAfterUpdate(t *testing.T) {
	f := newFixture(t, Config{Admission: KeepAll, Sync: SyncPropagate})
	tmpl := selectCountTemplate()

	// Warm the pool, then commit an update that refreshes the entries.
	f.run(t, tmpl, mal.IntV(0), mal.IntV(50))
	f.queryID++
	qid := f.queryID
	f.rec.BeginQuery(qid, tmpl.ID) // begins under the pre-commit epoch
	f.cat.MustTable("sys", "t").Append([]catalog.Row{{"v": int64(25), "w": int64(0)}})

	ctx := &mal.Ctx{Cat: f.cat, Hook: f.rec, QueryID: qid, Workers: 1}
	if err := mal.Run(ctx, tmpl, mal.IntV(0), mal.IntV(50)); err != nil {
		t.Fatal(err)
	}
	f.rec.EndQuery(qid)
	if ctx.Stats.Hits != 0 {
		t.Fatalf("straddling query took %d stale hits", ctx.Stats.Hits)
	}

	// A query beginning after the commit reuses the refreshed entries
	// and sees the extra qualifying row.
	ctx2 := f.run(t, tmpl, mal.IntV(0), mal.IntV(50))
	if ctx2.Stats.Hits == 0 {
		t.Fatal("post-commit query did not hit the refreshed pool")
	}
	if ctx2.Results[0].Val.I != 52 {
		t.Fatalf("count = %d, want 52", ctx2.Results[0].Val.I)
	}
}

// TestQueryBeginningDuringCommitWindowRefused covers the notification
// window: a commit's mutation becomes visible when the catalog lock
// releases, but the recycler's invalidation (OnUpdate) runs moments
// later. A query that begins inside that window could bind post-commit
// data yet still match pre-commit pool entries, so the pre-commit
// OnBeforeUpdate epoch bump must make such queries count as straddling
// the commit.
func TestQueryBeginningDuringCommitWindowRefused(t *testing.T) {
	f := newFixture(t, Config{Admission: KeepAll})
	tb := f.cat.MustTable("sys", "t")
	tmpl := selectCountTemplate()
	f.run(t, tmpl, mal.IntV(0), mal.IntV(50)) // warm the pool

	// Drive the listener protocol by hand to freeze the in-flight
	// moment: pre-notification fired, mutation visible, invalidation
	// not yet delivered.
	f.rec.OnBeforeUpdate(tb)
	f.queryID++
	qid := f.queryID
	f.rec.BeginQuery(qid, tmpl.ID) // begins inside the commit window
	ctx := &mal.Ctx{Cat: f.cat, Hook: f.rec, QueryID: qid, Workers: 1}
	if err := mal.Run(ctx, tmpl, mal.IntV(0), mal.IntV(50)); err != nil {
		t.Fatal(err)
	}
	if ctx.Stats.Hits != 0 {
		t.Fatalf("window query took %d hits against a mid-commit pool", ctx.Stats.Hits)
	}
	// Deliver the post-commit invalidation; the window query must also
	// not have admitted anything that survives it... and a fresh query
	// admits and hits normally again.
	f.rec.OnUpdate(catalog.UpdateEvent{Table: tb, Cols: []string{"v"}})
	f.rec.EndQuery(qid)
	ctx2 := f.run(t, tmpl, mal.IntV(0), mal.IntV(50))
	ctx3 := f.run(t, tmpl, mal.IntV(0), mal.IntV(50))
	if ctx2.Stats.Hits != 0 || ctx3.Stats.Hits == 0 {
		t.Fatalf("post-commit hit pattern wrong: first=%d second=%d", ctx2.Stats.Hits, ctx3.Stats.Hits)
	}
}

// TestUnrelatedUpdateDoesNotBlockAdmission: staleness is tracked per
// table, so a commit to a table the query never reads must not refuse
// its admissions (a global refusal would starve the pool under any
// background write trickle).
func TestUnrelatedUpdateDoesNotBlockAdmission(t *testing.T) {
	f := newFixture(t, Config{Admission: KeepAll})
	other := f.cat.CreateTable("sys", "other", []catalog.ColDef{{Name: "x", Kind: bat.KInt}})
	tmpl := selectCountTemplate()

	f.queryID++
	qid := f.queryID
	ctx := &mal.Ctx{Cat: f.cat, Hook: f.rec, QueryID: qid, Workers: 1}
	f.rec.BeginQuery(qid, tmpl.ID)
	// Commit to a table the query does not depend on, mid-flight.
	other.Append([]catalog.Row{{"x": int64(1)}})
	if err := mal.Run(ctx, tmpl, mal.IntV(0), mal.IntV(50)); err != nil {
		t.Fatal(err)
	}
	f.rec.EndQuery(qid)
	if f.rec.Pool().Len() == 0 {
		t.Fatal("unrelated update blocked admission")
	}
}
