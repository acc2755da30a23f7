package recycler

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/bat"
	"repro/internal/catalog"
	"repro/internal/mal"
	"repro/internal/opt"
	"repro/internal/sqlfe"
)

// Differential harness for the delta engine, run once per SyncMode
// preset: random statements warm a pool, then randomized update batches
// (appends, deletions, duplicates, empty deltas)
// commit against two tables, and after every batch each statement is
// executed twice — once against the pool and once as a from-scratch
// recompute with no recycler attached. The two result sets must be
// bit-identical: same columns, same scalar bits, same BAT heads and
// tails in the same order. Any unsound delta rule, any entry left
// holding pre-commit data, any float summed in a different order shows
// up as a diff. The one sanctioned difference is row ORDER below a
// cross-table join: the join rule appends L⋈δR where a recompute
// interleaves it (plan.DeltaJoin), so those statements compare as bags.

type diffStmt struct {
	name   string
	tmpl   *mal.Template
	params []mal.Value
	bag    bool // rows compare as a multiset (see above)
}

type diffHarness struct {
	cat    *catalog.Catalog
	tb, ub *catalog.Table
	fe     *sqlfe.Frontend
	rec    *Recycler
	qid    uint64
}

// newDiffHarness builds sys.t(a, b, f) and sys.u(k, c) with a join
// index t.a → u.k, so plans can reach every rule: filters, projections
// and aggregates over t, an equi-join t.a = u.k, and sql.bindIdxbat.
func newDiffHarness(rng *rand.Rand, rows int, mode SyncMode) *diffHarness {
	cat := catalog.New()
	ub := cat.CreateTable("sys", "u", []catalog.ColDef{
		{Name: "k", Kind: bat.KInt},
		{Name: "c", Kind: bat.KInt},
	})
	tb := cat.CreateTable("sys", "t", []catalog.ColDef{
		{Name: "a", Kind: bat.KInt},
		{Name: "b", Kind: bat.KInt},
		{Name: "f", Kind: bat.KFloat},
	})
	ubatch := make([]catalog.Row, rows/4+1)
	for i := range ubatch {
		ubatch[i] = diffRowU(rng)
	}
	ub.Append(ubatch)
	batch := make([]catalog.Row, rows)
	for i := range batch {
		batch[i] = diffRow(rng)
	}
	tb.Append(batch)
	tb.DefineJoinIndex("fk_a", "a", ub, "k")
	return &diffHarness{
		cat: cat,
		tb:  tb,
		ub:  ub,
		fe:  sqlfe.NewFrontend(cat),
		rec: New(cat, Config{Admission: KeepAll, Sync: mode}),
	}
}

// diffRow samples one row of t; a and b land in the predicate value
// space [0,50) so random statements select non-trivial subsets.
func diffRow(rng *rand.Rand) catalog.Row {
	return catalog.Row{
		"a": int64(rng.Intn(50)),
		"b": int64(rng.Intn(50)),
		"f": float64(rng.Intn(1000)) / 8,
	}
}

// diffRowU samples one row of u; k shares a's value space so the
// equi-join matches, with repeats on both sides.
func diffRowU(rng *rand.Rand) catalog.Row {
	return catalog.Row{"k": int64(rng.Intn(50)), "c": int64(rng.Intn(1000))}
}

// sql compiles one statement of the single-table SQL subset.
func (h *diffHarness) sql(t *testing.T, q string) diffStmt {
	t.Helper()
	tmpl, params, err := h.fe.Compile(q)
	if err != nil {
		t.Fatalf("compile %q: %v", q, err)
	}
	return diffStmt{name: q, tmpl: tmpl, params: params}
}

// pooled executes st against the recycled stack (pool hits serve
// whatever the preset kept).
func (h *diffHarness) pooled(t *testing.T, st diffStmt) []mal.Result {
	t.Helper()
	h.qid++
	ctx := &mal.Ctx{Cat: h.cat, Hook: h.rec, QueryID: h.qid}
	h.rec.BeginQuery(h.qid, st.tmpl.ID)
	defer h.rec.EndQuery(h.qid)
	if err := mal.Run(ctx, st.tmpl, st.params...); err != nil {
		t.Fatalf("pooled run %q: %v", st.name, err)
	}
	return ctx.Results
}

// recompute executes st from scratch: same template, no recycler.
func (h *diffHarness) recompute(t *testing.T, st diffStmt) []mal.Result {
	t.Helper()
	ctx := &mal.Ctx{Cat: h.cat}
	if err := mal.Run(ctx, st.tmpl, st.params...); err != nil {
		t.Fatalf("recompute %q: %v", st.name, err)
	}
	return ctx.Results
}

func (h *diffHarness) check(t *testing.T, seed int64, batch int, stmts []diffStmt) {
	t.Helper()
	for _, st := range stmts {
		want := h.recompute(t, st)
		got := h.pooled(t, st)
		if !diffResultsBitIdentical(want, got, st.bag) {
			t.Fatalf("seed %d batch %d: pooled result differs from recompute for %q\nwant %v\ngot  %v",
				seed, batch, st.name, want, got)
		}
	}
}

// diffResultsBitIdentical compares two result sets exactly: same
// columns, same scalar bits, same BAT rows in the same order — or, for
// a bag statement, the same rows in any order.
func diffResultsBitIdentical(a, b []mal.Result, bag bool) bool {
	if len(a) != len(b) {
		return false
	}
	rowsOf := func(x *bat.BAT) []string {
		out := make([]string, x.Len())
		for j := range out {
			out[j] = fmt.Sprintf("%#v|%#v", x.Head.Get(j), x.Tail.Get(j))
		}
		if bag {
			sort.Strings(out)
		}
		return out
	}
	for i := range a {
		if a[i].Name != b[i].Name {
			return false
		}
		va, vb := a[i].Val, b[i].Val
		if va.Kind != vb.Kind {
			return false
		}
		if va.Kind != mal.VBat {
			if !va.EqualConst(vb) {
				return false
			}
			continue
		}
		if !slices.Equal(rowsOf(va.Bat), rowsOf(vb.Bat)) {
			return false
		}
	}
	return true
}

// diffPred renders one random conjunct over a or b.
func diffPred(rng *rand.Rand) string {
	col := []string{"a", "b"}[rng.Intn(2)]
	switch rng.Intn(4) {
	case 0:
		lo := rng.Intn(40)
		return fmt.Sprintf("%s BETWEEN %d AND %d", col, lo, lo+rng.Intn(15)+1)
	case 1:
		return fmt.Sprintf("%s >= %d", col, rng.Intn(40))
	case 2:
		return fmt.Sprintf("%s = %d", col, rng.Intn(50))
	default:
		return fmt.Sprintf("%s <= %d", col, rng.Intn(50))
	}
}

// diffStatements samples the statement set. The SQL half covers every
// rowset shape (bind → selects → semijoins → aggregate); the
// hand-built plans reach the view and join rules, sql.bindIdxbat and
// the rowset rules' refusals, which the single-table SQL subset cannot
// express.
func (h *diffHarness) diffStatements(t *testing.T, rng *rand.Rand) []diffStmt {
	where := func() string {
		s := diffPred(rng)
		if rng.Intn(2) == 1 {
			s += " AND " + diffPred(rng)
		}
		return s
	}
	str := func(s string) mal.Arg { return mal.C(mal.StrV(s)) }
	bind := func(b *mal.Builder, tbl, col string) mal.Arg {
		return b.Op1("sql", "bind", str("sys"), str(tbl), str(col), mal.C(mal.IntV(0)))
	}
	export := func(name string, b *mal.Builder, cols ...mal.Arg) *mal.Template {
		for i, c := range cols {
			b.Do("sql", "exportCol", str(fmt.Sprintf("%s%d", name, i)), c)
		}
		return opt.Optimize(b.Freeze(), opt.Options{})
	}

	// Fig. 3's shape: select → markT → reverse → join with a second
	// column of the same table. New right-side rows are only ever
	// referenced by new left-side rows, so row order survives.
	fig3 := mal.NewBuilder("diff_fig3")
	lo := int64(rng.Intn(30))
	sel := fig3.Op1("algebra", "select", bind(fig3, "t", "a"), mal.C(mal.IntV(lo)), mal.C(mal.IntV(lo+int64(rng.Intn(20)))), mal.C(mal.BoolV(true)), mal.C(mal.BoolV(true)))
	rev := fig3.Op1("bat", "reverse", fig3.Op1("algebra", "markT", sel, mal.C(mal.OidV(0))))
	fig3Out := fig3.Op1("algebra", "join", rev, bind(fig3, "t", "b"))

	// t.a = u.k by value, then u.c fetched through the matched oids.
	eq := mal.NewBuilder("diff_equijoin")
	pairs := eq.Op1("algebra", "join", bind(eq, "t", "a"), eq.Op1("bat", "reverse", bind(eq, "u", "k")))
	eqOut := eq.Op1("algebra", "join", pairs, bind(eq, "u", "c"))

	// The same join through the foreign-key index.
	fk := mal.NewBuilder("diff_fkjoin")
	idx := fk.Op1("sql", "bindIdxbat", str("sys"), str("t"), str("fk_a"))
	fkOut := fk.Op1("algebra", "join", idx, bind(fk, "u", "c"))
	fkMirror := fk.Op1("bat", "mirror", idx)

	// The rowset rules' two refusals. A select over a reversed bind is
	// headed by column VALUES: tombstoning it by oid would drop the
	// wrong rows. A semijoin of a t column against a u rowset depends on
	// two tables: a commit to u moves it, but no rule sees that delta.
	guard := mal.NewBuilder("diff_guards")
	olo := int64(rng.Intn(40))
	overView := guard.Op1("algebra", "select", guard.Op1("bat", "reverse", bind(guard, "t", "a")),
		mal.C(mal.OidV(bat.Oid(olo))), mal.C(mal.OidV(bat.Oid(olo+30))), mal.C(mal.BoolV(true)), mal.C(mal.BoolV(true)))
	uSel := guard.Op1("algebra", "select", bind(guard, "u", "c"), mal.C(mal.IntV(0)), mal.C(mal.IntV(700)), mal.C(mal.BoolV(true)), mal.C(mal.BoolV(true)))
	twoTables := guard.Op1("algebra", "semijoin", bind(guard, "t", "b"), uSel)

	return []diffStmt{
		{name: "guards", tmpl: export("g", guard, overView, twoTables)},
		h.sql(t, "SELECT COUNT(*) FROM sys.t WHERE "+where()),
		h.sql(t, "SELECT SUM(a) FROM sys.t WHERE "+where()),
		h.sql(t, "SELECT SUM(f) FROM sys.t WHERE "+where()),
		h.sql(t, "SELECT a, f FROM sys.t WHERE "+where()),
		h.sql(t, "SELECT COUNT(*) FROM sys.t WHERE "+where()),
		{name: "fig3", tmpl: export("fig3", fig3, fig3Out)},
		{name: "equijoin", tmpl: export("eq", eq, pairs, eqOut), bag: true},
		{name: "fkjoin", tmpl: export("fk", fk, fkOut, fkMirror)},
	}
}

// TestMaintainDifferential is the delta engine's backbone: per preset,
// 1000 randomized update batches across 8 seeds, every pooled statement
// bit-identical to a from-scratch recompute after every batch.
func TestMaintainDifferential(t *testing.T) {
	const seeds = 8
	const batchesPerSeed = 125 // 8 x 125 = 1000 batches per preset
	for _, mode := range []SyncMode{SyncInvalidate, SyncPropagate, SyncMaintain} {
		name, _ := mode.preset()
		for s := 0; s < seeds; s++ {
			seed := int64(9000 + s)
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				runMaintainDifferential(t, mode, seed, batchesPerSeed)
			})
		}
	}
}

// diffTable is one table's live-row bookkeeping, so deletions target
// real oids.
type diffTable struct {
	tb   *catalog.Table
	row  func(*rand.Rand) catalog.Row
	live []bat.Oid
	next bat.Oid
}

func newDiffTable(tb *catalog.Table, row func(*rand.Rand) catalog.Row) *diffTable {
	d := &diffTable{tb: tb, row: row, next: bat.Oid(tb.NumRows())}
	for o := bat.Oid(0); o < d.next; o++ {
		d.live = append(d.live, o)
	}
	return d
}

func runMaintainDifferential(t *testing.T, mode SyncMode, seed int64, batches int) {
	rng := rand.New(rand.NewSource(seed))
	h := newDiffHarness(rng, rng.Intn(150)+50, mode)
	defer h.rec.Close()
	stmts := h.diffStatements(t, rng)

	// Warm the pool (and verify the first pass already matches).
	h.check(t, seed, -1, stmts)

	tables := []*diffTable{
		newDiffTable(h.tb, diffRow),
		newDiffTable(h.ub, diffRowU),
	}
	for i := 0; i < batches; i++ {
		d := tables[0]
		if rng.Intn(4) == 0 {
			d = tables[1]
		}
		switch op := rng.Intn(8); {
		case op < 5: // append
			k := rng.Intn(5) + 1
			rows := make([]catalog.Row, k)
			for j := range rows {
				rows[j] = d.row(rng)
			}
			if k > 1 && rng.Intn(4) == 0 {
				// Duplicate rows: the same values repeated within one
				// batch must flow through every delta once each.
				for j := 1; j < k; j++ {
					rows[j] = rows[0]
				}
			}
			if d == tables[0] && rng.Intn(8) == 0 {
				// Empty-delta batch: values outside every predicate's
				// range (and every join key), so filter deltas select
				// nothing and aggregates move by the unfiltered rows only.
				for j := range rows {
					rows[j]["a"] = int64(1000)
					rows[j]["b"] = int64(1000)
				}
			}
			d.tb.Append(rows)
			for j := 0; j < k; j++ {
				d.live = append(d.live, d.next)
				d.next++
			}
		default: // delete
			if len(d.live) == 0 {
				continue
			}
			k := rng.Intn(4) + 1
			if rng.Intn(20) == 0 {
				k = len(d.live) // all-deleted: the table empties entirely
			}
			if k > len(d.live) {
				k = len(d.live)
			}
			rng.Shuffle(len(d.live), func(x, y int) { d.live[x], d.live[y] = d.live[y], d.live[x] })
			d.tb.Delete(append([]bat.Oid(nil), d.live[:k]...))
			d.live = d.live[k:]
		}
		h.check(t, seed, i, stmts)
	}

	// The differential must not have run vacuously, and the counters
	// must say what the preset did: nothing is maintained under
	// invalidate, something is under the other two.
	st := h.rec.Snapshot()
	if mode == SyncInvalidate {
		if st.Maintained != 0 || st.MaintainFallback != 0 || st.DeltaRows != 0 || st.MaintainTime != 0 || st.Invalidated == 0 {
			t.Fatalf("seed %d: invalidate preset reported maintenance (stats %+v)", seed, st)
		}
	} else if st.Maintained == 0 || st.DeltaRows == 0 {
		t.Fatalf("seed %d: no entries were maintained — the differential ran vacuously (stats %+v)", seed, st)
	}
	t.Logf("seed %d: maintained %d, fallback %d, delta rows %d, invalidated %d",
		seed, st.Maintained, st.MaintainFallback, st.DeltaRows, st.Invalidated)
}

// TestMaintainEdgeCases pins the three directed corners of the delta
// rules on a fixed catalog: an empty delta (no selected rows), a batch
// deleting everything a cached select matched, and duplicate inserted
// rows.
func TestMaintainEdgeCases(t *testing.T) {
	const seed = 4242
	rng := rand.New(rand.NewSource(seed))
	h := newDiffHarness(rng, 80, SyncMaintain)
	defer h.rec.Close()
	stmts := []diffStmt{
		h.sql(t, "SELECT COUNT(*) FROM sys.t WHERE a BETWEEN 10 AND 20"),
		h.sql(t, "SELECT SUM(a) FROM sys.t WHERE b <= 25"),
		h.sql(t, "SELECT SUM(f) FROM sys.t WHERE a >= 5 AND b BETWEEN 0 AND 40"),
		h.sql(t, "SELECT a, f FROM sys.t WHERE a BETWEEN 0 AND 49"),
	}
	h.check(t, seed, -1, stmts)

	// Empty delta: values outside every predicate — entries must stay
	// maintained (not fall back) and results must not move for the
	// filtered statements.
	before := h.rec.Snapshot().Maintained
	h.tb.Append([]catalog.Row{{"a": int64(1000), "b": int64(1000), "f": 3.25}})
	h.check(t, seed, 0, stmts)
	if after := h.rec.Snapshot().Maintained; after <= before {
		t.Fatalf("empty-delta commit maintained nothing (%d -> %d)", before, after)
	}

	// Duplicate rows: one batch of four identical rows, then the same
	// values again in a second batch.
	dup := catalog.Row{"a": int64(15), "b": int64(15), "f": 7.5}
	h.tb.Append([]catalog.Row{dup, dup, dup, dup})
	h.check(t, seed, 1, stmts)
	h.tb.Append([]catalog.Row{dup})
	h.check(t, seed, 2, stmts)

	// All-deleted: remove every live row; counts drop to zero, sums
	// empty out, projections return no rows — identically on both
	// paths.
	n := h.tb.NumRows()
	all := make([]bat.Oid, 0, n)
	for i := 0; i < n; i++ {
		all = append(all, bat.Oid(i))
	}
	h.tb.Delete(all)
	h.check(t, seed, 3, stmts)

	st := h.rec.Snapshot()
	if st.Maintained == 0 {
		t.Fatalf("edge cases maintained nothing: %+v", st)
	}
}

// TestMaintainStorageCorners drives the corners of append-in-place
// storage through every preset, pooled vs recompute after every
// commit: single-row batches until the columns (and, under tombstones,
// their live tails) have moved to larger storage three times; two
// entries sharing one result the walk built, room included, because a
// kernel handed its input through (only the entry the result was built
// for may extend into it); a row deleted and re-inserted under a fresh
// oid, then deleted again while it sits in a tail's freshly written
// room; the last live row deleted, with an append right behind the
// tombstone; and the table emptied and refilled.
func TestMaintainStorageCorners(t *testing.T) {
	for _, mode := range []SyncMode{SyncInvalidate, SyncPropagate, SyncMaintain} {
		name, _ := mode.preset()
		t.Run(name, func(t *testing.T) {
			const seed = 777
			rng := rand.New(rand.NewSource(seed))
			h := newDiffHarness(rng, 64, mode)
			defer h.rec.Close()
			stmts := h.diffStatements(t, rng)
			step := 0
			check := func() {
				t.Helper()
				h.check(t, seed, step, stmts)
				step++
			}
			check()

			colCap := func() int {
				states, _ := h.cat.ExportState() // t's columns, with their room
				for _, ts := range states {
					if ts.Name == "t" {
						return cap(ts.Data[0].(*bat.Ints).V)
					}
				}
				panic("no table t")
			}
			next := bat.Oid(h.tb.NumRows())
			insert := func(r catalog.Row) bat.Oid {
				h.tb.Append([]catalog.Row{r})
				next++
				return next - 1
			}

			h.tb.Delete([]bat.Oid{3}) // from here on every bind of t is materialised
			check()
			for growths, last := 0, colCap(); growths < 3; {
				insert(diffRow(rng))
				check()
				if c := colCap(); c != last {
					growths, last = growths+1, c
				}
			}

			// wide = f of every row with a in range, and notNil = wide
			// without nil f. wide is warmed first and takes an insert, so
			// its result is one the walk built, with room; notNil is
			// planned after that, when no f is nil yet, so selectNotNil
			// hands wide's result through and the two entries share it.
			aliasing := func(notNil bool) diffStmt {
				b := mal.NewBuilder(fmt.Sprintf("diff_alias_%v", notNil))
				str := func(s string) mal.Arg { return mal.C(mal.StrV(s)) }
				bind := func(col string) mal.Arg {
					return b.Op1("sql", "bind", str("sys"), str("t"), str(col), mal.C(mal.IntV(0)))
				}
				yes := mal.C(mal.BoolV(true))
				sel := b.Op1("algebra", "select", bind("a"), mal.C(mal.IntV(0)), mal.C(mal.IntV(100000)), yes, yes)
				out := b.Op1("algebra", "semijoin", bind("f"), sel)
				if notNil {
					out = b.Op1("algebra", "selectNotNil", out)
				}
				b.Do("sql", "exportCol", str("f"), out)
				return diffStmt{name: b.Freeze().Name, tmpl: opt.Optimize(b.Freeze(), opt.Options{})}
			}
			stmts = append(stmts, aliasing(false))
			check()
			insert(catalog.Row{"a": int64(7), "b": int64(1), "f": 0.5})
			check()
			stmts = append(stmts, aliasing(true))
			check()
			shared := map[*bat.BAT]int{}
			for _, e := range h.rec.pool.entries {
				if e.Result.Kind == mal.VBat {
					shared[e.Result.Bat]++
				}
			}
			if !slices.ContainsFunc(slices.Collect(maps.Values(shared)), func(n int) bool { return n > 1 }) {
				t.Fatal("no two entries share a result: the aliasing corner is not covered")
			}
			// One row only wide takes, then one both take: were notNil to
			// extend the shared result in place as well, it would write
			// the second row over the first in wide's result.
			insert(catalog.Row{"a": int64(7), "b": int64(1), "f": bat.NilFloat()})
			insert(catalog.Row{"a": int64(7), "b": int64(1), "f": 0.75})
			check()

			row := catalog.Row{"a": int64(12), "b": int64(12), "f": 1.5}
			o := insert(row)
			h.tb.Delete([]bat.Oid{o})
			check()
			o = insert(row)
			check()
			h.tb.Delete([]bat.Oid{o}) // o is the last live row
			check()
			o = insert(row)
			h.tb.Delete([]bat.Oid{o - 2, o})
			check()

			all := make([]bat.Oid, next)
			for i := range all {
				all[i] = bat.Oid(i)
			}
			h.tb.Delete(all)
			check()
			insert(row)
			insert(diffRow(rng))
			check()

			if st := h.rec.Snapshot(); mode != SyncInvalidate && (st.Maintained == 0 || st.DeltaRows == 0) {
				t.Fatalf("nothing was maintained: %+v", st)
			}
		})
	}
}
