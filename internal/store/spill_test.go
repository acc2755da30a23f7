package store

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro"
	"repro/internal/bat"
	"repro/internal/catalog"
	"repro/internal/mal"
	"repro/internal/recycler"
	"repro/internal/sky"
)

// The spill tests drive a real engine over a small SkyServer catalog:
// the queries below produce bind → select → count chains whose
// intermediates are admitted, demoted to the disk tier, and reloaded
// through canonical-signature matching.

const boxQuery = "SELECT COUNT(*) FROM sky.photoobj WHERE ra BETWEEN 195.0 AND 215.5 AND dec BETWEEN 2.0 AND 33.0 AND mode = 1"

func countOf(t *testing.T, res *repro.ExecResult) int64 {
	t.Helper()
	if len(res.Results) == 0 {
		t.Fatal("no results")
	}
	v := res.Results[0].Val
	return v.I
}

func newSpillEngine(t *testing.T, cat *catalog.Catalog, tier *Spill) *repro.Engine {
	t.Helper()
	eng := repro.NewEngine(cat, repro.WithRecycler(recycler.Config{
		Admission: recycler.KeepAll,
		Spill:     tier,
	}))
	t.Cleanup(eng.Recycler().Close)
	return eng
}

// TestSpillAllReloadOnMiss: demote the whole pool, empty it, re-run
// the query — every instruction must be served from disk, not
// recomputed.
func TestSpillAllReloadOnMiss(t *testing.T) {
	db := sky.Generate(2000, 17)
	tier, err := openSpill(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	eng := newSpillEngine(t, db.Cat, tier)

	res1, err := eng.ExecSQL(boxQuery)
	if err != nil {
		t.Fatal(err)
	}
	want := countOf(t, res1)

	rec := eng.Recycler()
	n := rec.SpillAll()
	if n == 0 {
		t.Fatal("SpillAll wrote nothing")
	}
	if entries, _ := tier.Stats(); entries == 0 {
		t.Fatal("tier holds no records")
	}
	rec.Reset()
	if rec.Pool().Len() != 0 {
		t.Fatal("pool not empty after reset")
	}

	res2, err := eng.ExecSQL(boxQuery)
	if err != nil {
		t.Fatal(err)
	}
	if got := countOf(t, res2); got != want {
		t.Fatalf("reloaded result %d != original %d", got, want)
	}
	st := rec.Snapshot()
	if st.Reloaded == 0 {
		t.Fatalf("no disk-tier reloads: %+v", st)
	}
	if res2.Stats.Hits == 0 {
		t.Fatal("second run reported no hits")
	}
}

// TestSpillStaleDroppedAfterCommit: a commit to the dependency table
// between demotion and reload must invalidate the spilled records
// lazily, and the re-run must reflect the new data.
func TestSpillStaleDroppedAfterCommit(t *testing.T) {
	db := sky.Generate(2000, 17)
	tier, err := openSpill(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	eng := newSpillEngine(t, db.Cat, tier)

	res1, err := eng.ExecSQL(boxQuery)
	if err != nil {
		t.Fatal(err)
	}
	before := countOf(t, res1)

	rec := eng.Recycler()
	if rec.SpillAll() == 0 {
		t.Fatal("SpillAll wrote nothing")
	}
	rec.Reset()

	// Insert a row inside the bounding box: every spilled photoobj
	// intermediate is now one version behind.
	tbl := db.Cat.MustTable("sky", "photoobj")
	row := catalog.Row{"objid": int64(1 << 60), "ra": 200.0, "dec": 10.0, "mode": int64(1)}
	for _, c := range tbl.Cols {
		if _, ok := row[c.Name]; !ok {
			switch c.KindOf {
			case bat.KInt:
				row[c.Name] = int64(0)
			case bat.KFloat:
				row[c.Name] = 0.0
			case bat.KStr:
				row[c.Name] = ""
			default:
				t.Fatalf("unexpected column kind %v", c.KindOf)
			}
		}
	}
	tbl.Append([]catalog.Row{row})

	res2, err := eng.ExecSQL(boxQuery)
	if err != nil {
		t.Fatal(err)
	}
	if got := countOf(t, res2); got != before+1 {
		t.Fatalf("post-commit result %d, want %d (stale reload served?)", got, before+1)
	}
	st := rec.Snapshot()
	if st.StaleDropped == 0 {
		t.Fatalf("no stale drops recorded: %+v", st)
	}
	if st.Reloaded != 0 {
		t.Fatalf("stale records were reloaded: %+v", st)
	}
}

// TestPrewarmServesFirstQuery: a fresh recycler over the same catalog
// pre-warms from the tier and serves the very first query from the
// pool.
func TestPrewarmServesFirstQuery(t *testing.T) {
	db := sky.Generate(2000, 17)
	tier, err := openSpill(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	engA := newSpillEngine(t, db.Cat, tier)
	res1, err := engA.ExecSQL(boxQuery)
	if err != nil {
		t.Fatal(err)
	}
	want := countOf(t, res1)
	if engA.Recycler().SpillAll() == 0 {
		t.Fatal("SpillAll wrote nothing")
	}

	engB := newSpillEngine(t, db.Cat, tier)
	n := engB.Recycler().Prewarm()
	if n == 0 {
		t.Fatal("prewarm admitted nothing")
	}
	res2, err := engB.ExecSQL(boxQuery)
	if err != nil {
		t.Fatal(err)
	}
	if got := countOf(t, res2); got != want {
		t.Fatalf("prewarmed result %d != original %d", got, want)
	}
	if res2.Stats.Hits == 0 {
		t.Fatal("first query after prewarm reported no pool hits")
	}
	st := engB.Recycler().Snapshot()
	if st.Prewarmed == 0 || st.Reuses == 0 {
		t.Fatalf("prewarm stats: %+v", st)
	}
}

// TestPrewarmRejectsStale: records spilled before a commit must not
// pre-warm after it.
func TestPrewarmRejectsStale(t *testing.T) {
	db := sky.Generate(2000, 17)
	tier, err := openSpill(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	engA := newSpillEngine(t, db.Cat, tier)
	if _, err := engA.ExecSQL(boxQuery); err != nil {
		t.Fatal(err)
	}
	if engA.Recycler().SpillAll() == 0 {
		t.Fatal("SpillAll wrote nothing")
	}

	// Any committed delete bumps the table version.
	db.Cat.MustTable("sky", "photoobj").Delete([]bat.Oid{1})

	engB := newSpillEngine(t, db.Cat, tier)
	if n := engB.Recycler().Prewarm(); n != 0 {
		t.Fatalf("prewarm admitted %d stale entries", n)
	}
	if st := engB.Recycler().Snapshot(); st.StaleDropped == 0 {
		t.Fatalf("stale records not dropped: %+v", st)
	}
}

// TestPrewarmRejectsRecreatedTable: a dropped-and-recreated table must
// never re-validate the old table's spilled records, even if its
// restarted version counter reaches the old value again. The creation
// stamp (commit sequence at CreateTable) breaks the alias.
func TestPrewarmRejectsRecreatedTable(t *testing.T) {
	cat := catalog.New()
	mk := func() {
		tb := cat.CreateTable("sys", "kv", []catalog.ColDef{
			{Name: "k", Kind: bat.KInt},
			{Name: "v", Kind: bat.KInt},
		})
		tb.Append([]catalog.Row{{"k": int64(1), "v": int64(10)}, {"k": int64(2), "v": int64(20)}})
	}
	mk()
	tier, err := openSpill(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	engA := repro.NewEngine(cat, repro.WithRecycler(recycler.Config{Admission: recycler.KeepAll, Spill: tier}))
	if _, err := engA.ExecSQL("SELECT COUNT(*) FROM sys.kv WHERE v BETWEEN 5 AND 15"); err != nil {
		t.Fatal(err)
	}
	if engA.Recycler().SpillAll() == 0 {
		t.Fatal("SpillAll wrote nothing")
	}
	engA.Recycler().Close()

	// Drop and recreate with identical data: the new table's Version
	// equals the old one's, but its creation stamp cannot.
	cat.DropTable("sys", "kv")
	mk()

	engB := repro.NewEngine(cat, repro.WithRecycler(recycler.Config{Admission: recycler.KeepAll, Spill: tier}))
	defer engB.Recycler().Close()
	if n := engB.Recycler().Prewarm(); n != 0 {
		t.Fatalf("prewarm admitted %d records of the dropped table", n)
	}
	if st := engB.Recycler().Snapshot(); st.StaleDropped == 0 {
		t.Fatalf("recreated-table records not dropped: %+v", st)
	}
}

// TestNoSpillDuringPendingCommit: an entry must not be demoted while a
// dependency table has a commit in flight — the table's new version is
// visible but the entry still holds the previous one's data, so its
// record would be stale on arrival.
func TestNoSpillDuringPendingCommit(t *testing.T) {
	db := sky.Generate(2000, 17)
	tier, err := openSpill(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Registered before the recycler, this listener runs inside the
	// commit window: the mutation is visible, the pool not fixed up yet.
	var rec *recycler.Recycler
	inWindow := -1
	db.Cat.AddListener(onUpdate(func(catalog.UpdateEvent) {
		if rec != nil && inWindow < 0 {
			inWindow = rec.SpillAll()
		}
	}))
	eng := newSpillEngine(t, db.Cat, tier)
	if _, err := eng.ExecSQL(boxQuery); err != nil {
		t.Fatal(err)
	}
	rec = eng.Recycler()

	tbl := db.Cat.MustTable("sky", "photoobj")
	tbl.Delete([]bat.Oid{0})
	if inWindow != 0 {
		t.Fatalf("SpillAll demoted %d entries of a table with a commit in flight", inWindow)
	}

	// With the window closed the recomputed entries spill fine, and
	// reload still yields the correct result.
	res1, err := eng.ExecSQL(boxQuery)
	if err != nil {
		t.Fatal(err)
	}
	before := countOf(t, res1)
	if n := rec.SpillAll(); n == 0 {
		t.Fatal("SpillAll wrote nothing after the window closed")
	}
	rec.Reset()
	res2, err := eng.ExecSQL(boxQuery)
	if err != nil {
		t.Fatal(err)
	}
	if got := countOf(t, res2); got != before {
		t.Fatalf("reloaded result %d != original %d", got, before)
	}
}

// onUpdate is a catalog listener running f on every commit.
type onUpdate func(catalog.UpdateEvent)

func (f onUpdate) OnUpdate(ev catalog.UpdateEvent) { f(ev) }
func (f onUpdate) OnDrop(*catalog.Table)           {}

// TestSpillBudgetEvictsOldest: the tier must stay within its byte
// budget by discarding the oldest records.
func TestSpillBudgetEvictsOldest(t *testing.T) {
	db := sky.Generate(2000, 17)
	tier, err := openSpill(t.TempDir(), 64*1024)
	if err != nil {
		t.Fatal(err)
	}
	eng := newSpillEngine(t, db.Cat, tier)
	queries := []string{
		boxQuery,
		"SELECT COUNT(*) FROM sky.photoobj WHERE ra BETWEEN 10.0 AND 80.0 AND dec BETWEEN -60.0 AND 60.0 AND mode = 1",
		"SELECT COUNT(*) FROM sky.photoobj WHERE ra BETWEEN 100.0 AND 180.0 AND dec BETWEEN -60.0 AND 60.0 AND mode = 1",
	}
	for _, q := range queries {
		if _, err := eng.ExecSQL(q); err != nil {
			t.Fatal(err)
		}
	}
	eng.Recycler().SpillAll()
	_, bytes := tier.Stats()
	if bytes > 64*1024 {
		t.Fatalf("tier exceeds budget: %d bytes", bytes)
	}
}

// TestConcurrentSpillReload hammers the demote/reload paths from many
// goroutines over a tightly bounded pool, alternating query shapes so
// entries constantly evict (spill) and return (reload). Run under
// -race in CI; correctness of each result is asserted against a naive
// reference.
func TestConcurrentSpillReload(t *testing.T) {
	db := sky.Generate(2000, 17)
	tier, err := openSpill(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	eng := repro.NewEngine(db.Cat, repro.WithRecycler(recycler.Config{
		Admission:  recycler.KeepAll,
		MaxEntries: 6,
		Spill:      tier,
	}))
	defer eng.Recycler().Close()

	queries := []string{
		boxQuery,
		"SELECT COUNT(*) FROM sky.photoobj WHERE ra BETWEEN 10.0 AND 80.0 AND dec BETWEEN -60.0 AND 60.0 AND mode = 1",
		"SELECT COUNT(*) FROM sky.photoobj WHERE ra BETWEEN 100.0 AND 180.0 AND dec BETWEEN -60.0 AND 60.0 AND mode = 1",
		"SELECT COUNT(*) FROM sky.photoobj WHERE ra BETWEEN 300.0 AND 350.0 AND dec BETWEEN -20.0 AND 20.0 AND mode = 1",
	}
	naive := repro.NewEngine(db.Cat)
	want := make([]int64, len(queries))
	for i, q := range queries {
		res, err := naive.ExecSQL(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = countOf(t, res)
	}

	const workers, iters = 8, 30
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := 0; i < iters; i++ {
				qi := (w + i) % len(queries)
				res, err := eng.ExecSQL(queries[qi])
				if err != nil {
					errc <- err
					return
				}
				if got := res.Results[0].Val.I; got != want[qi] {
					errc <- fmt.Errorf("worker %d query %d: got %d, want %d", w, qi, got, want[qi])
					return
				}
			}
			errc <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	// Demotions are written by the asynchronous spiller goroutine;
	// on a single-core host the workload can finish before it drains
	// the queue, so poll instead of snapshotting instantly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := eng.Recycler().Snapshot()
		if st.Spilled > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Errorf("bounded pool never demoted: %+v", st)
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRestartWarmPool is the end-to-end restart path: catalog and pool
// survive a full store cycle (bootstrap → queries → spill + checkpoint
// → close → recover → prewarm) and the first post-restart query hits.
func TestRestartWarmPool(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	db := sky.Generate(2000, 17)
	if err := st.Bootstrap(db.Cat); err != nil {
		t.Fatal(err)
	}
	eng := newSpillEngine(t, db.Cat, st.Spill())
	res1, err := eng.ExecSQL(boxQuery)
	if err != nil {
		t.Fatal(err)
	}
	want := countOf(t, res1)
	if eng.Recycler().SpillAll() == 0 {
		t.Fatal("SpillAll wrote nothing")
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cat2, err := st2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	eng2 := newSpillEngine(t, cat2, st2.Spill())
	if n := eng2.Recycler().Prewarm(); n == 0 {
		t.Fatal("nothing prewarmed after restart")
	}
	res2, err := eng2.ExecSQL(boxQuery)
	if err != nil {
		t.Fatal(err)
	}
	if got := countOf(t, res2); got != want {
		t.Fatalf("post-restart result %d != pre-restart %d", got, want)
	}
	if res2.Stats.Hits == 0 {
		t.Fatal("first post-restart query reported no pool hits")
	}
	if st := eng2.Recycler().Snapshot(); st.Reuses == 0 {
		t.Fatalf("no reuses before any recomputation: %+v", st)
	}
}

// boxRow builds one complete photoobj row landing inside boxQuery's
// bounding box.
func boxRow(t *testing.T, tbl *catalog.Table, objid int64) catalog.Row {
	t.Helper()
	row := catalog.Row{"objid": objid, "ra": 200.0, "dec": 10.0, "mode": int64(1)}
	for _, c := range tbl.Cols {
		if _, ok := row[c.Name]; !ok {
			switch c.KindOf {
			case bat.KInt:
				row[c.Name] = int64(0)
			case bat.KFloat:
				row[c.Name] = 0.0
			case bat.KStr:
				row[c.Name] = ""
			default:
				t.Fatalf("unexpected column kind %v", c.KindOf)
			}
		}
	}
	return row
}

func newMaintainSpillEngine(t *testing.T, cat *catalog.Catalog, tier *Spill) *repro.Engine {
	t.Helper()
	eng := repro.NewEngine(cat, repro.WithRecycler(recycler.Config{
		Admission: recycler.KeepAll,
		Spill:     tier,
		Sync:      recycler.SyncMaintain,
	}))
	t.Cleanup(eng.Recycler().Close)
	return eng
}

// TestMaintainSpillRestart is the maintain mode crash-consistency
// contract: commit → maintain → SpillAll → restart → Prewarm must
// rehydrate the MAINTAINED content — the post-commit values, stamped
// at the post-commit table version — and serve it to the first query
// without recomputation.
func TestMaintainSpillRestart(t *testing.T) {
	db := sky.Generate(2000, 17)
	tier, err := openSpill(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	engA := newMaintainSpillEngine(t, db.Cat, tier)
	res1, err := engA.ExecSQL(boxQuery)
	if err != nil {
		t.Fatal(err)
	}
	before := countOf(t, res1)

	// Commit one row inside the box: maintain mode delta-patches the
	// pooled chain in place instead of invalidating it.
	tbl := db.Cat.MustTable("sky", "photoobj")
	tbl.Append([]catalog.Row{boxRow(t, tbl, int64(1<<60))})
	res2, err := engA.ExecSQL(boxQuery)
	if err != nil {
		t.Fatal(err)
	}
	if got := countOf(t, res2); got != before+1 {
		t.Fatalf("maintained result %d, want %d", got, before+1)
	}
	if res2.Stats.Hits == 0 {
		t.Fatal("post-commit query recomputed instead of hitting the maintained pool")
	}
	stA := engA.Recycler().Snapshot()
	if stA.Maintained == 0 {
		t.Fatalf("commit maintained nothing: %+v", stA)
	}

	// Demote the maintained pool and restart.
	if engA.Recycler().SpillAll() == 0 {
		t.Fatal("SpillAll wrote nothing")
	}
	engB := newMaintainSpillEngine(t, db.Cat, tier)
	if n := engB.Recycler().Prewarm(); n == 0 {
		t.Fatal("prewarm admitted nothing after the maintained spill")
	}
	res3, err := engB.ExecSQL(boxQuery)
	if err != nil {
		t.Fatal(err)
	}
	if got := countOf(t, res3); got != before+1 {
		t.Fatalf("post-restart result %d, want maintained %d", got, before+1)
	}
	if res3.Stats.Hits == 0 {
		t.Fatal("first post-restart query reported no pool hits")
	}
}

// TestMaintainStaleSpillDropped: records demoted BEFORE a commit hold
// pre-maintenance content; maintenance patches only the in-memory
// pool, so those records must drop lazily at the next prewarm rather
// than resurrect pre-commit data.
func TestMaintainStaleSpillDropped(t *testing.T) {
	db := sky.Generate(2000, 17)
	tier, err := openSpill(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	engA := newMaintainSpillEngine(t, db.Cat, tier)
	res1, err := engA.ExecSQL(boxQuery)
	if err != nil {
		t.Fatal(err)
	}
	before := countOf(t, res1)
	if engA.Recycler().SpillAll() == 0 {
		t.Fatal("SpillAll wrote nothing")
	}
	engA.Recycler().Close()

	// The commit happens after the spill (and after the recycler is
	// gone — a crash between demotion and restart): the tier's records
	// are now one version behind.
	tbl := db.Cat.MustTable("sky", "photoobj")
	tbl.Append([]catalog.Row{boxRow(t, tbl, int64(1<<60))})

	engB := newMaintainSpillEngine(t, db.Cat, tier)
	if n := engB.Recycler().Prewarm(); n != 0 {
		t.Fatalf("prewarm admitted %d pre-maintenance records", n)
	}
	if st := engB.Recycler().Snapshot(); st.StaleDropped == 0 {
		t.Fatalf("stale pre-maintenance records not dropped: %+v", st)
	}
	res2, err := engB.ExecSQL(boxQuery)
	if err != nil {
		t.Fatal(err)
	}
	if got := countOf(t, res2); got != before+1 {
		t.Fatalf("post-restart result %d, want recomputed %d", got, before+1)
	}
}

// TestSpillOldFormatRecordDoesNotLoad: a record written before the
// length-prefixed literal encoding carries no format tag. Its canonical
// keys could alias new ones, so opening the tier removes it like a
// corrupt file, while a current record next to it loads.
func TestSpillOldFormatRecordDoesNotLoad(t *testing.T) {
	dir := t.TempDir()
	tier, err := openSpill(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recycler.SpillRecord{
		CanonSig: "algebra.likeselect([sql.bind(s3:sky,s8:dbobjec,s4:name,i0)],s5:3:abc)",
		OpName:   "algebra.likeselect",
		Args:     []recycler.SpillArg{{Bat: true, Canon: "sql.bind(s3:sky,s8:dbobjec,s4:name,i0)"}, {Key: "s5:3:abc"}},
		Result:   mal.IntV(7),
	}
	tier.Spill(rec)

	old := *rec
	old.CanonSig = "algebra.likeselect([sql.bind(ssky,sdbobjec,sname,i0)],s3:abc)"
	meta := encodeSpillMeta(&old)[4:] // the untagged layout
	val := &enc{}
	encodeValue(val, old.Result)
	oldPath := filepath.Join(dir, "0123456789abcdef.spl")
	f, err := os.Create(oldPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(f, meta); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(f, val.b); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := openSpill(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := reopened.Stats(); n != 1 {
		t.Fatalf("reopened tier holds %d records, want only the current one", n)
	}
	if _, ok := reopened.Lookup(old.CanonSig); ok {
		t.Fatal("old-format record loaded")
	}
	if got, ok := reopened.Lookup(rec.CanonSig); !ok || got.Result.I != 7 {
		t.Fatalf("current record lost: %+v %v", got, ok)
	}
	if _, err := os.Stat(oldPath); !os.IsNotExist(err) {
		t.Fatalf("old-format file not removed at open: %v", err)
	}
}
