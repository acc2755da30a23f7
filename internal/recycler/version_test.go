package recycler

import (
	"fmt"
	"testing"

	"repro/internal/bat"
	"repro/internal/catalog"
	"repro/internal/mal"
	"repro/internal/opt"
)

// onCommit is a catalog listener running f on every commit.
type onCommit func(catalog.Commit)

func (f onCommit) OnUpdate(c catalog.Commit) { f(c) }

// commitOps numbers the ops commitOp registers.
var commitOps int

// commitOp registers a MAL op "test.<op>" under a fresh name and
// returns the op part. The op runs commit and yields int 0, so it can
// stand in for a bind's constant access-mode argument: a bind taking
// it runs after the commit under any worker count, and its pool key is
// the one a literal 0 gives.
func commitOp(commit func(ctx *mal.Ctx)) string {
	commitOps++
	op := fmt.Sprintf("commit%d", commitOps)
	mal.RegisterOp("test."+op, func(ctx *mal.Ctx, _ *mal.Instr, _ []mal.Value) (mal.Value, error) {
		commit(ctx)
		return mal.IntV(0), nil
	})
	return op
}

// markAll marks every instruction but the exports for the recycler:
// the commit op's result is no recyclable operand, so MarkRecycle
// would leave whatever consumes it unmonitored.
func markAll(tmpl *mal.Template) *mal.Template {
	for i := range tmpl.Instrs {
		in := &tmpl.Instrs[i]
		in.Marked = in.Module != "test" && in.Op != "exportValue"
	}
	return tmpl
}

// commitThenCountTemplate is selectCountTemplate behind a leading op
// that pins sys.t — the query reads it before anything else — and
// then commits: the query straddles the commit from its first
// monitored instruction on.
func commitThenCountTemplate(t *testing.T, commit func()) *mal.Template {
	op := commitOp(func(ctx *mal.Ctx) {
		if _, ok := ctx.Pin("sys.t"); !ok {
			t.Error("sys.t not pinnable")
		}
		commit()
	})
	b := mal.NewBuilder("commitcount")
	a0 := b.Param("A0", mal.VInt)
	a1 := b.Param("A1", mal.VInt)
	x0 := b.Op1("test", op)
	x1 := b.Op1("sql", "bind", mal.C(mal.StrV("sys")), mal.C(mal.StrV("t")), mal.C(mal.StrV("v")), x0)
	x2 := b.Op1("algebra", "select", x1, a0, a1, mal.C(mal.BoolV(true)), mal.C(mal.BoolV(true)))
	x3 := b.Op1("aggr", "count", x2)
	b.Do("sql", "exportValue", mal.C(mal.StrV("n")), x3)
	return markAll(b.Freeze())
}

// TestStaleAdmissionRefusedAfterUpdate covers the commit/walk race: a
// query that read a table before a DML commit holds pre-update
// operands, so its intermediates must not enter the pool after the
// commit's walk already ran — otherwise the stale result would be
// served to every later query.
func TestStaleAdmissionRefusedAfterUpdate(t *testing.T) {
	f := newFixture(t, Config{Admission: KeepAll})
	tmpl := selectCountTemplate()
	straddle := commitThenCountTemplate(t, func() {
		tableOf(f).Append([]catalog.Row{{"v": int64(1000), "w": int64(0)}})
	})

	// The query reads sys.t, then an update commits mid-flight (before
	// the query's intermediates reach recycleExit).
	ctx := f.run(t, straddle, mal.IntV(0), mal.IntV(50))
	if n := f.rec.Pool().Len(); n != 0 {
		t.Fatalf("pool admitted %d entries from a query that straddled an update", n)
	}
	if ctx.Results[0].Val.I != 51 {
		t.Fatalf("straddling count = %d, want 51", ctx.Results[0].Val.I)
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

// TestStaleHitRefusedAfterUpdate covers the hit side of the version
// compare: under SyncPropagate a commit refreshes pool entries in
// place, so a query that read the table before the commit must not be
// served the post-update result (it is inconsistent with the version
// the query reads). The entry stays usable for queries that begin
// after the commit.
func TestStaleHitRefusedAfterUpdate(t *testing.T) {
	f := newFixture(t, Config{Admission: KeepAll, Sync: SyncPropagate})
	tmpl := selectCountTemplate()
	straddle := commitThenCountTemplate(t, func() {
		tableOf(f).Append([]catalog.Row{{"v": int64(25), "w": int64(0)}})
	})

	// Warm the pool, then run a query that reads the table and commits
	// an update that refreshes the entries.
	f.run(t, tmpl, mal.IntV(0), mal.IntV(50))
	ctx := f.run(t, straddle, mal.IntV(0), mal.IntV(50))
	if ctx.Stats.Hits != 0 {
		t.Fatalf("straddling query took %d stale hits", ctx.Stats.Hits)
	}
	if ctx.Results[0].Val.I != 51 {
		t.Fatalf("straddling count = %d, want the pre-commit 51", ctx.Results[0].Val.I)
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
// releases, but the recycler's walk (OnUpdate) runs moments later. A
// query that begins inside that window reads the new version, so the
// pre-commit pool entries must not match it, and nothing it computes
// may be admitted ahead of the walk.
func TestQueryBeginningDuringCommitWindowRefused(t *testing.T) {
	// A listener registered ahead of the recycler freezes the in-flight
	// moment: mutation visible, walk not yet delivered.
	var window func()
	f := newFixture(t, Config{Admission: KeepAll}, onCommit(func(catalog.Commit) {
		if w := window; w != nil {
			window = nil
			w()
		}
	}))
	tb := f.cat.MustTable("sys", "t")
	tmpl := selectCountTemplate()
	f.run(t, tmpl, mal.IntV(0), mal.IntV(50)) // warm the pool

	var ctx *mal.Ctx
	window = func() {
		f.queryID++
		qid := f.queryID
		f.rec.BeginQuery(qid, tmpl.ID) // begins inside the commit window
		defer f.rec.EndQuery(qid)
		ctx = &mal.Ctx{Cat: f.cat, Hook: f.rec, QueryID: qid}
		if err := mal.Run(ctx, tmpl, mal.IntV(0), mal.IntV(50)); err != nil {
			t.Error(err)
		}
	}
	tb.Append([]catalog.Row{{"v": int64(1000), "w": int64(0)}})
	if ctx == nil {
		t.Fatal("the window query did not run")
	}
	if ctx.Stats.Hits != 0 {
		t.Fatalf("window query took %d hits against a mid-commit pool", ctx.Stats.Hits)
	}
	// The walk has run: the window query must not have admitted
	// anything that survives it, and a fresh query admits and hits
	// normally again.
	ctx2 := f.run(t, tmpl, mal.IntV(0), mal.IntV(50))
	ctx3 := f.run(t, tmpl, mal.IntV(0), mal.IntV(50))
	if ctx2.Stats.Hits != 0 || ctx3.Stats.Hits == 0 {
		t.Fatalf("post-commit hit pattern wrong: first=%d second=%d", ctx2.Stats.Hits, ctx3.Stats.Hits)
	}
}

// TestFailedAppendChangesNothing: an append that panics on a
// wrong-typed row value fails before the catalog publishes a version,
// so the table keeps its stamp, the log gets no record, no listener
// hears of it, and a maintained pool over the table keeps every entry:
// the same query is again an exact hit on every marked instruction.
func TestFailedAppendChangesNothing(t *testing.T) {
	f := newFixture(t, Config{Admission: KeepAll, Sync: SyncMaintain})
	var records int
	f.cat.SetCommitHook(func(catalog.Commit) { records++ })
	tmpl := selectCountTemplate()
	f.run(t, tmpl, mal.IntV(0), mal.IntV(50)) // warm the pool
	marked := 0
	for _, in := range tmpl.Instrs {
		if in.Marked {
			marked++
		}
	}
	before, _ := f.cat.Pin("sys.t")
	st := f.rec.Snapshot()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("append of a wrong-typed value did not panic")
			}
		}()
		tableOf(f).Append([]catalog.Row{{"v": int64(1000), "w": "not an int"}})
	}()
	if after, _ := f.cat.Pin("sys.t"); after.Stamp != before.Stamp {
		t.Fatalf("the failed append moved the table from %+v to %+v", before.Stamp, after.Stamp)
	}
	if records != 0 {
		t.Fatalf("the failed append logged %d records", records)
	}
	if now := f.rec.Snapshot(); now.Invalidated != st.Invalidated || now.MaintainFallback != st.MaintainFallback {
		t.Fatalf("the failed append reached the pool: invalidated %d -> %d, fallback %d -> %d",
			st.Invalidated, now.Invalidated, st.MaintainFallback, now.MaintainFallback)
	}
	if ctx := f.run(t, tmpl, mal.IntV(0), mal.IntV(50)); marked == 0 || ctx.Stats.Hits != marked {
		t.Fatalf("query after the failed append: %d hits on %d marked instructions", ctx.Stats.Hits, marked)
	}
}

// TestUnrelatedUpdateDoesNotBlockAdmission: versions are per table, so
// a commit to a table the query never reads must not refuse its
// admissions (a global refusal would starve the pool under any
// background write trickle).
func TestUnrelatedUpdateDoesNotBlockAdmission(t *testing.T) {
	f := newFixture(t, Config{Admission: KeepAll})
	other := f.cat.CreateTable("sys", "other", []catalog.ColDef{{Name: "x", Kind: bat.KInt}})
	tmpl := selectCountTemplate()

	f.queryID++
	qid := f.queryID
	ctx := &mal.Ctx{Cat: f.cat, Hook: f.rec, QueryID: qid}
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

// TestStraddlingQueryReadsOneVersion: a plan binds s.a, commits a
// multi-row DELETE of s through an op of its own, then binds s.b. The
// query reads one version of s, so count(a) == count(b), both the
// count a recompute at that version gives — naive and recycled (cold
// and warm pool).
func TestStraddlingQueryReadsOneVersion(t *testing.T) {
	for _, mode := range []string{"naive", "recycled", "recycled-warm"} {
		t.Run(mode, func(t *testing.T) { testStraddle(t, mode) })
	}
}

func testStraddle(t *testing.T, mode string) {
	cat := catalog.New()
	tb := cat.CreateTable("sys", "s", []catalog.ColDef{{Name: "a", Kind: bat.KInt}, {Name: "b", Kind: bat.KInt}})
	rows := make([]catalog.Row, 10)
	for i := range rows {
		rows[i] = catalog.Row{"a": int64(i), "b": int64(-i)}
	}
	tb.Append(rows)
	var hook mal.RecyclerHook
	var rec *Recycler
	if mode != "naive" {
		rec = New(cat, Config{Admission: KeepAll, Sync: SyncMaintain})
		defer rec.Close()
		hook = rec
	}

	deleteNext := false
	op := commitOp(func(*mal.Ctx) {
		if deleteNext {
			deleteNext = false
			tb.Delete([]bat.Oid{2, 5, 7})
		}
	})
	b := mal.NewBuilder("straddle")
	xa := b.Op1("sql", "bind", mal.C(mal.StrV("sys")), mal.C(mal.StrV("s")), mal.C(mal.StrV("a")), mal.C(mal.IntV(0)))
	z := b.Op1("test", op, xa)
	xb := b.Op1("sql", "bind", mal.C(mal.StrV("sys")), mal.C(mal.StrV("s")), mal.C(mal.StrV("b")), z)
	ca := b.Op1("aggr", "count", xa)
	cb := b.Op1("aggr", "count", xb)
	b.Do("sql", "exportValue", mal.C(mal.StrV("a")), ca)
	b.Do("sql", "exportValue", mal.C(mal.StrV("b")), cb)
	tmpl := markAll(b.Freeze())
	// The naive recompute: the same counts with no commit in the plan.
	plain := opt.Optimize(func() *mal.Template {
		b := mal.NewBuilder("plain")
		for _, col := range []string{"a", "b"} {
			x := b.Op1("sql", "bind", mal.C(mal.StrV("sys")), mal.C(mal.StrV("s")), mal.C(mal.StrV(col)), mal.C(mal.IntV(0)))
			b.Do("sql", "exportValue", mal.C(mal.StrV(col)), b.Op1("aggr", "count", x))
		}
		return b.Freeze()
	}(), opt.Options{})

	var qid uint64
	run := func(tmpl *mal.Template) (ca, cb int64) {
		t.Helper()
		qid++
		ctx := &mal.Ctx{Cat: cat, Hook: hook, QueryID: qid}
		if rec != nil {
			rec.BeginQuery(qid, tmpl.ID)
			defer rec.EndQuery(qid)
		}
		if err := mal.Run(ctx, tmpl); err != nil {
			t.Fatal(err)
		}
		return ctx.Results[0].Val.I, ctx.Results[1].Val.I
	}
	if mode == "recycled-warm" {
		run(tmpl)
	}
	wantA, wantB := run(plain)
	deleteNext = true
	a, b2 := run(tmpl)
	if a != b2 || a != wantA || b2 != wantB {
		t.Fatalf("straddling query read count(a) = %d, count(b) = %d; want both %d (one version)", a, b2, wantA)
	}
	wantA, wantB = run(plain)
	if wantA != 7 || wantB != 7 {
		t.Fatalf("after the delete the recompute counts %d and %d, want 7", wantA, wantB)
	}
	if a, b2 := run(tmpl); a != 7 || b2 != 7 {
		t.Fatalf("a query after the commit counts %d and %d, want 7", a, b2)
	}
}

// TestBindNamesMaterialiseAtPinnedSnapshots: a bind is a name, and its
// rows are read at the version the query pinned, however late. Each
// query below pins sys.n, names its columns, lets commits land through
// an op of its own, and only then reads the rows — so a read at the
// table's current version instead of the pin answers differently.
//   - "pooled": the bind hits a pooled entry no query has read at its
//     version, the commits (a delete and an append) move that entry
//     on, and the select below it misses.
//   - "fresh": the bind misses and is admitted, then the same commits.
//   - "straddle": a bind and a join-index bind before a delete, a bind
//     after it.
//
// Every answer equals a recompute without a recycler at the pinned
// version, which the naive run before the commits reads.
func TestBindNamesMaterialiseAtPinnedSnapshots(t *testing.T) {
	cat := catalog.New()
	p := cat.CreateTable("sys", "p", []catalog.ColDef{{Name: "k", Kind: bat.KInt}})
	p.Append([]catalog.Row{{"k": int64(0)}, {"k": int64(1)}, {"k": int64(2)}})
	tb := cat.CreateTable("sys", "n", []catalog.ColDef{
		{Name: "a", Kind: bat.KInt}, {Name: "b", Kind: bat.KInt}, {Name: "j", Kind: bat.KInt},
	})
	row := func(i int) catalog.Row { return catalog.Row{"a": int64(i), "b": int64(i * 7 % 50), "j": int64(i % 4)} }
	var rows []catalog.Row
	for i := 0; i < 64; i++ {
		rows = append(rows, row(i))
	}
	tb.Append(rows)
	tb.DefineJoinIndex("fk", "j", p, "k")
	tb.Delete([]bat.Oid{5}) // the pinned versions have tombstones, and their caches
	rec := New(cat, Config{Admission: KeepAll, Sync: SyncMaintain})
	defer rec.Close()

	// commit runs the armed commits once, from inside a query.
	var armed func()
	op := commitOp(func(*mal.Ctx) {
		if c := armed; c != nil {
			armed = nil
			c()
		}
	})
	// commits deletes the given rows, then appends two.
	commits := func(dead ...bat.Oid) func() {
		return func() {
			tb.Delete(dead)
			tb.Append([]catalog.Row{row(15), row(25)})
		}
	}
	str := func(s string) mal.Arg { return mal.C(mal.StrV(s)) }
	bind := func(b *mal.Builder, col string, mode mal.Arg) mal.Arg {
		return b.Op1("sql", "bind", str("sys"), str("n"), str(col), mode)
	}
	yes := mal.C(mal.BoolV(true))
	// export counts and sums the rows of x in [lo, hi].
	export := func(b *mal.Builder, name string, x, lo, hi mal.Arg) {
		s := b.Op1("algebra", "select", x, lo, hi, yes, yes)
		b.Do("sql", "exportValue", str(name+".count"), b.Op1("aggr", "count", s))
		b.Do("sql", "exportValue", str(name+".sum"), b.Op1("aggr", "sumInt", s))
	}
	// selectTemplate: bind col, commit, then read it in [A0, A1].
	selectTemplate := func(col string) *mal.Template {
		b := mal.NewBuilder("pinned-" + col)
		lo, hi := b.Param("A0", mal.VInt), b.Param("A1", mal.VInt)
		x := bind(b, col, mal.C(mal.IntV(0)))
		b.Op1("test", op, x)
		export(b, col, x, lo, hi)
		return markAll(b.Freeze())
	}
	straddle := func() *mal.Template {
		b := mal.NewBuilder("straddle-names")
		lo, hi := b.Param("A0", mal.VInt), b.Param("A1", mal.VInt)
		xa := bind(b, "a", mal.C(mal.IntV(0)))
		xi := b.Op1("sql", "bindIdxbat", str("sys"), str("n"), str("fk"))
		z := b.Op1("test", op, xa)
		xb := bind(b, "b", z)
		export(b, "a", xa, lo, hi)
		export(b, "b", xb, lo, hi)
		b.Do("sql", "exportValue", str("idx.count"), b.Op1("aggr", "count", xi))
		return markAll(b.Freeze())
	}()

	var qid uint64
	run := func(tmpl *mal.Template, hook mal.RecyclerHook, lo, hi int64) (*mal.Ctx, map[string]int64) {
		t.Helper()
		qid++
		ctx := &mal.Ctx{Cat: cat, Hook: hook, QueryID: qid}
		if hook != nil {
			rec.BeginQuery(qid, tmpl.ID)
			defer rec.EndQuery(qid)
		}
		if err := mal.Run(ctx, tmpl, mal.IntV(lo), mal.IntV(hi)); err != nil {
			t.Fatal(err)
		}
		got := map[string]int64{}
		for _, r := range ctx.Results {
			got[r.Name] = r.Val.I
		}
		return ctx, got
	}
	// check runs tmpl naive, then recycled with commit armed, and
	// compares; hits is the number of pool hits the recycled run must
	// take.
	check := func(name string, tmpl *mal.Template, commit func(), lo, hi int64, hits int) {
		t.Helper()
		_, want := run(tmpl, nil, lo, hi)
		armed = commit
		ctx, got := run(tmpl, rec, lo, hi)
		if armed != nil {
			t.Fatalf("%s: the commits did not run", name)
		}
		if ctx.Stats.Hits != hits {
			t.Fatalf("%s: %d pool hits, want %d", name, ctx.Stats.Hits, hits)
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("%s: %s = %d after the commits, want %d at the pinned version", name, k, got[k], v)
			}
		}
		if _, now := run(tmpl, nil, lo, hi); fmt.Sprint(now) == fmt.Sprint(want) {
			t.Fatalf("%s: the commits did not change the answer %v", name, now)
		}
	}

	sel := selectTemplate("a")
	run(sel, rec, 0, 63) // pools the bind of a, and reads it
	// The walk renames the pooled bind at the append's version: a name
	// nothing has read yet.
	tb.Append([]catalog.Row{row(64)})
	check("pooled", sel, commits(12, 20, 33), 10, 40, 1)
	check("fresh", selectTemplate("b"), commits(3, 21, 22), 0, 30, 0)
	// The bind of a hits; the pooled bind of b is past the query's pin
	// by the time it is asked.
	check("straddle", straddle, func() { tb.Delete([]bat.Oid{1, 2, 40}) }, 0, 45, 1)

	// The pool moved on with the commits: a query now reads the latest
	// version, from the pool where it can.
	for _, tc := range []struct {
		tmpl   *mal.Template
		lo, hi int64
	}{{sel, 10, 40}, {straddle, 0, 45}} {
		_, want := run(tc.tmpl, nil, tc.lo, tc.hi)
		if _, got := run(tc.tmpl, rec, tc.lo, tc.hi); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s after the commits: %v, recompute %v", tc.tmpl.Name, got, want)
		}
	}
}

// TestStalePinHitsUnreachedEntries: versions are intervals. Under
// SyncMaintain a query binds sys.t, then a commit lands inside one of
// two disjoint box chains (an insert into, or a delete from, chain A's
// range). The walk changes chain A and proves chain B the same at both
// versions, so the query — still pinned before the commit — hits the
// bind and all of chain B, misses chain A, and answers what a
// recompute at its pin gives. A query after the commit hits both.
func TestStalePinHitsUnreachedEntries(t *testing.T) {
	for _, tc := range []struct {
		name   string
		commit func(*catalog.Table)
	}{
		{"insert", func(tb *catalog.Table) { tb.Append([]catalog.Row{{"v": int64(10), "w": int64(0)}}) }},
		{"delete", func(tb *catalog.Table) { tb.Delete([]bat.Oid{10}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t, Config{Admission: KeepAll, Sync: SyncMaintain})
			var armed func()
			op := commitOp(func(*mal.Ctx) {
				if c := armed; c != nil {
					armed = nil
					c()
				}
			})
			b := mal.NewBuilder("two-boxes")
			x := b.Op1("sql", "bind", mal.C(mal.StrV("sys")), mal.C(mal.StrV("t")), mal.C(mal.StrV("v")), mal.C(mal.IntV(0)))
			b.Op1("test", op, x)
			for i, box := range [][2]int64{{0, 20}, {50, 70}} {
				s := b.Op1("algebra", "select", x, mal.C(mal.IntV(box[0])), mal.C(mal.IntV(box[1])), mal.C(mal.BoolV(true)), mal.C(mal.BoolV(true)))
				b.Do("sql", "exportValue", mal.C(mal.StrV(fmt.Sprint("box", i))), b.Op1("aggr", "count", s))
			}
			tmpl := markAll(b.Freeze())
			naive := func() [2]int64 {
				ctx := &mal.Ctx{Cat: f.cat}
				if err := mal.Run(ctx, tmpl); err != nil {
					t.Fatal(err)
				}
				return [2]int64{ctx.Results[0].Val.I, ctx.Results[1].Val.I}
			}
			counts := func(ctx *mal.Ctx) [2]int64 { return [2]int64{ctx.Results[0].Val.I, ctx.Results[1].Val.I} }

			f.run(t, tmpl) // warm: bind, and per box a select and a count
			want := naive()
			armed = func() { tc.commit(tableOf(f)) }
			ctx := f.run(t, tmpl)
			if armed != nil {
				t.Fatal("the commit did not run")
			}
			if got := counts(ctx); got != want {
				t.Fatalf("stale query counts %v, want %v at its pin", got, want)
			}
			// The bind (before the commit), box B's select and count.
			if ctx.Stats.Hits != 3 {
				t.Fatalf("stale query took %d hits, want 3: the bind and box B's chain", ctx.Stats.Hits)
			}
			if st := f.rec.Snapshot(); st.Reached != 3 || st.MaintainFallback != 0 {
				t.Fatalf("the walk reached %d entries (fallback %d), want the bind and box A's chain", st.Reached, st.MaintainFallback)
			}

			after := naive()
			if after == want {
				t.Fatalf("the commit did not change the answer %v", want)
			}
			ctx = f.run(t, tmpl)
			if got := counts(ctx); got != after || ctx.Stats.Hits != 5 {
				t.Fatalf("query after the commit counts %v with %d hits, want %v with 5", got, ctx.Stats.Hits, after)
			}
		})
	}
}

// TestStaleCrossTablePinMissesRefreshedJoin: under SyncPropagate a join X
// of a filter over sys.a with a reversed filter over sys.b reads both
// tables. A commit to b adds a row whose key a does not have: it
// reaches b's chain but not X. A commit to a then adds a row with that
// key, and the join rule appends the pair, computed against b's chain
// as of b's applied version — so X now holds only from that version of
// b on. A query that took b's chain from the pool before the two
// commits and binds a after them reads b at the old version and a at
// the new: it must miss X and answer what a run without a recycler at
// the same pins gives.
func TestStaleCrossTablePinMissesRefreshedJoin(t *testing.T) {
	run := func(recycled bool) (stale, after string, hits [2]int) {
		cat := catalog.New()
		table := func(name string, keys ...int64) *catalog.Table {
			tb := cat.CreateTable("sys", name, []catalog.ColDef{{Name: "k", Kind: bat.KInt}})
			for _, k := range keys {
				tb.Append([]catalog.Row{{"k": k}})
			}
			return tb
		}
		ta, tb := table("a", 1, 2), table("b", 2, 3)
		var hook mal.RecyclerHook
		var rec *Recycler
		if recycled {
			rec = New(cat, Config{Admission: KeepAll, Sync: SyncPropagate})
			defer rec.Close()
			hook = rec
		}
		var armed func()
		op := commitOp(func(*mal.Ctx) {
			if c := armed; c != nil {
				armed = nil
				c()
			}
		})
		str := func(s string) mal.Arg { return mal.C(mal.StrV(s)) }
		b := mal.NewBuilder("cross-table")
		sel := func(table string, mode mal.Arg) mal.Arg {
			x := b.Op1("sql", "bind", str("sys"), str(table), str("k"), mode)
			return b.Op1("algebra", "select", x, mal.C(mal.IntV(0)), mal.C(mal.IntV(100)), mal.C(mal.BoolV(true)), mal.C(mal.BoolV(true)))
		}
		pb := b.Op1("bat", "reverse", sel("b", mal.C(mal.IntV(0))))
		pa := sel("a", b.Op1("test", op, pb))
		b.Do("sql", "exportCol", str("x"), b.Op1("algebra", "join", pa, pb))
		tmpl := markAll(b.Freeze())

		var qid uint64
		query := func() (string, int) {
			t.Helper()
			qid++
			ctx := &mal.Ctx{Cat: cat, Hook: hook, QueryID: qid}
			if rec != nil {
				rec.BeginQuery(qid, tmpl.ID)
				defer rec.EndQuery(qid)
			}
			if err := mal.Run(ctx, tmpl); err != nil {
				t.Fatal(err)
			}
			return ctx.Results[0].Val.Bat.Dump(10), ctx.Stats.Hits
		}
		query() // warm
		armed = func() {
			tb.Append([]catalog.Row{{"k": int64(5)}})
			ta.Append([]catalog.Row{{"k": int64(5)}})
		}
		stale, hits[0] = query()
		if armed != nil {
			t.Fatal("the commits did not run")
		}
		after, hits[1] = query()
		return stale, after, hits
	}
	wantStale, wantAfter, _ := run(false)
	if wantStale == wantAfter {
		t.Fatalf("the commits did not change the answer %s", wantStale)
	}
	stale, after, hits := run(true)
	if stale != wantStale {
		t.Fatalf("query pinned at the old b and the new a answers\n%s\nwant, at its pins,\n%s", stale, wantStale)
	}
	// b's bind, select and reverse before the commits, a's bind and
	// select after them; not the join.
	if hits[0] != 5 {
		t.Fatalf("stale query took %d hits, want 5: every entry but the join", hits[0])
	}
	if after != wantAfter || hits[1] != 6 {
		t.Fatalf("query after the commits answers\n%s\nwith %d hits, want\n%s\nwith 6", after, hits[1], wantAfter)
	}
}
