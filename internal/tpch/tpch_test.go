package tpch

import (
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/bat"
	"repro/internal/mal"
	"repro/internal/opt"
	"repro/internal/recycler"
)

var testDB = Generate(0.002, 7)

func run(t *testing.T, db *DB, hook mal.RecyclerHook, qid uint64, d *QueryDef, params []mal.Value) *mal.Ctx {
	t.Helper()
	ctx := &mal.Ctx{Cat: db.Cat, Hook: hook, QueryID: qid}
	if err := mal.Run(ctx, d.Templ, params...); err != nil {
		t.Fatalf("%s: %v", d.Name, err)
	}
	return ctx
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(0.002, 7)
	b := Generate(0.002, 7)
	if a.Lineitems != b.Lineitems || a.Orders != b.Orders {
		t.Fatalf("generation not deterministic: %d/%d vs %d/%d", a.Lineitems, a.Orders, b.Lineitems, b.Orders)
	}
	if a.Lineitems == 0 || a.Orders < a.Customers {
		t.Fatalf("bad sizes: %+v", a)
	}
}

func TestGenerateSchemaComplete(t *testing.T) {
	for _, name := range []string{"region", "nation", "supplier", "customer", "part", "partsupp", "orders", "lineitem"} {
		tb := testDB.Cat.Table(Schema, name)
		if tb == nil {
			t.Fatalf("missing table %s", name)
		}
		if tb.NumRows() == 0 {
			t.Fatalf("empty table %s", name)
		}
	}
}

// Reference implementation of Q6 for correctness checking.
func refQ6(db *DB, lo bat.Date, dLo, dHi float64, qtyMax int64) float64 {
	li := db.Table("lineitem")
	ship := li.MustColumn("l_shipdate").Bind().Tail.(*bat.Dates).V
	disc := li.MustColumn("l_discount").Bind().Tail.(*bat.Floats).V
	qty := li.MustColumn("l_quantity").Bind().Tail.(*bat.Ints).V
	price := li.MustColumn("l_extendedprice").Bind().Tail.(*bat.Floats).V
	hi := algebra.AddMonths(lo, 12)
	var sum float64
	for i := range ship {
		if ship[i] >= lo && ship[i] < hi && disc[i] >= dLo && disc[i] <= dHi && qty[i] < qtyMax {
			sum += price[i] * disc[i]
		}
	}
	return sum
}

func TestQ6AgainstReference(t *testing.T) {
	qm := QueryMap()
	d := qm[6]
	lo := algebra.MkDate(1994, 1, 1)
	params := []mal.Value{mal.DateV(lo), mal.FloatV(0.05), mal.FloatV(0.07), mal.IntV(24)}
	ctx := run(t, testDB, nil, 1, d, params)
	got := ctx.Results[0].Val.F
	want := refQ6(testDB, lo, 0.05, 0.07, 24)
	if diff := got - want; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("Q6 = %f, want %f", got, want)
	}
}

// Reference implementation of Q18's count of big orders.
func refQ18(db *DB, qty int64) int64 {
	li := db.Table("lineitem")
	lok := li.MustColumn("l_orderkey").Bind().Tail.(*bat.Ints).V
	lq := li.MustColumn("l_quantity").Bind().Tail.(*bat.Ints).V
	sums := map[int64]int64{}
	for i := range lok {
		sums[lok[i]] += lq[i]
	}
	var n int64
	for _, s := range sums {
		if s > qty {
			n++
		}
	}
	return n
}

func TestQ18AgainstReference(t *testing.T) {
	d := QueryMap()[18]
	ctx := run(t, testDB, nil, 1, d, []mal.Value{mal.IntV(180)})
	got := ctx.Results[0].Val.I
	want := refQ18(testDB, 180)
	if got != want {
		t.Fatalf("Q18 = %d, want %d", got, want)
	}
}

// Reference implementation of Q1's per-group count total.
func TestQ1GroupTotalsAgainstReference(t *testing.T) {
	d := QueryMap()[1]
	hi := algebra.MkDate(1998, 9, 2)
	ctx := run(t, testDB, nil, 1, d, []mal.Value{mal.DateV(hi)})
	var counts *bat.BAT
	for _, r := range ctx.Results {
		if r.Name == "count_order" {
			counts = r.Val.Bat
		}
	}
	if counts == nil {
		t.Fatal("count_order column missing")
	}
	var total int64
	for _, c := range counts.Tail.(*bat.Ints).V {
		total += c
	}
	// Reference: rows with shipdate <= hi.
	ship := testDB.Table("lineitem").MustColumn("l_shipdate").Bind().Tail.(*bat.Dates).V
	var want int64
	for _, s := range ship {
		if s <= hi {
			want++
		}
	}
	if total != want {
		t.Fatalf("Q1 total rows = %d, want %d", total, want)
	}
	// At most 6 (returnflag, linestatus) groups exist in TPC-H data.
	if counts.Len() > 6 {
		t.Fatalf("Q1 groups = %d, want <= 6", counts.Len())
	}
}

func TestQ4AgainstReference(t *testing.T) {
	d := QueryMap()[4]
	lo := algebra.MkDate(1994, 7, 1)
	ctx := run(t, testDB, nil, 1, d, []mal.Value{mal.DateV(lo)})
	var got int64
	for _, r := range ctx.Results {
		if r.Name == "order_count" {
			for _, c := range r.Val.Bat.Tail.(*bat.Ints).V {
				got += c
			}
		}
	}
	// Reference.
	li := testDB.Table("lineitem")
	commit := li.MustColumn("l_commitdate").Bind().Tail.(*bat.Dates).V
	receipt := li.MustColumn("l_receiptdate").Bind().Tail.(*bat.Dates).V
	lok := li.MustColumn("l_orderkey").Bind().Tail.(*bat.Ints).V
	lateOrders := map[int64]bool{}
	for i := range commit {
		if commit[i] < receipt[i] {
			lateOrders[lok[i]] = true
		}
	}
	ord := testDB.Table("orders")
	okeys := ord.MustColumn("o_orderkey").Bind().Tail.(*bat.Ints).V
	odates := ord.MustColumn("o_orderdate").Bind().Tail.(*bat.Dates).V
	hi := algebra.AddMonths(lo, 3)
	var want int64
	for i := range okeys {
		if odates[i] >= lo && odates[i] < hi && lateOrders[okeys[i]] {
			want++
		}
	}
	if got != want {
		t.Fatalf("Q4 = %d, want %d", got, want)
	}
}

// The master invariant: for every query, recycling (with subsumption)
// never changes results across repeated instances.
func TestAllQueriesRecycledEqualsNaive(t *testing.T) {
	rec := recycler.New(testDB.Cat, recycler.Config{
		Admission:           recycler.KeepAll,
		Subsumption:         true,
		CombinedSubsumption: true,
	})
	rng := rand.New(rand.NewSource(99))
	qid := uint64(0)
	for _, d := range Queries() {
		for inst := 0; inst < 3; inst++ {
			params := d.Params(rng)
			qid++
			rec.BeginQuery(qid, d.Templ.ID)
			rctx := &mal.Ctx{Cat: testDB.Cat, Hook: rec, QueryID: qid}
			if err := mal.Run(rctx, d.Templ, params...); err != nil {
				t.Fatalf("%s (recycled): %v", d.Name, err)
			}
			rec.EndQuery(qid)
			nctx := &mal.Ctx{Cat: testDB.Cat}
			if err := mal.Run(nctx, d.Templ, params...); err != nil {
				t.Fatalf("%s (naive): %v", d.Name, err)
			}
			compareResults(t, d.Name, rctx.Results, nctx.Results)
		}
	}
}

func compareResults(t *testing.T, name string, a, b []mal.Result) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: result count %d != %d", name, len(a), len(b))
	}
	for i := range a {
		va, vb := a[i].Val, b[i].Val
		if va.Kind != vb.Kind {
			t.Fatalf("%s result %s: kind %v != %v", name, a[i].Name, va.Kind, vb.Kind)
		}
		if va.Kind == mal.VBat {
			if va.Bat.Len() != vb.Bat.Len() {
				t.Fatalf("%s result %s: len %d != %d", name, a[i].Name, va.Bat.Len(), vb.Bat.Len())
			}
			continue
		}
		if va.Kind == mal.VFloat {
			d := va.F - vb.F
			if d > 1e-6 || d < -1e-6 {
				t.Fatalf("%s result %s: %f != %f", name, a[i].Name, va.F, vb.F)
			}
			continue
		}
		if !va.EqualConst(vb) {
			t.Fatalf("%s result %s: %v != %v", name, a[i].Name, va, vb)
		}
	}
}

func TestQ18InterQueryReuse(t *testing.T) {
	db := Generate(0.002, 11)
	rec := recycler.New(db.Cat, recycler.Config{Admission: recycler.KeepAll})
	d := QueryMap()[18]
	run1 := func(qid uint64, qty int64) *mal.Ctx {
		rec.BeginQuery(qid, d.Templ.ID)
		ctx := &mal.Ctx{Cat: db.Cat, Hook: rec, QueryID: qid}
		if err := mal.Run(ctx, d.Templ, mal.IntV(qty)); err != nil {
			t.Fatal(err)
		}
		rec.EndQuery(qid)
		return ctx
	}
	run1(1, 180)
	ctx := run1(2, 200) // different level: grouping still reused
	if ctx.Stats.GlobalHits == 0 {
		t.Fatal("Q18 grouping not reused across instances")
	}
	ratio := ctx.Stats.HitRatio()
	if ratio < 0.4 {
		t.Fatalf("Q18 second-instance hit ratio = %.2f, want >= 0.4", ratio)
	}
}

func TestQ11IntraQueryReuse(t *testing.T) {
	// The paper's plans carry Q11's sub-query chain twice; run-time
	// intra-query recycling dedups it (Table II's 33.3%). Compile with
	// CSE off to get the paper's plan shape.
	db := Generate(0.002, 12)
	rec := recycler.New(db.Cat, recycler.Config{Admission: recycler.KeepAll})
	d := QueryMapOpt(opt.Options{SkipCSE: true})[11]
	rec.BeginQuery(1, d.Templ.ID)
	ctx := &mal.Ctx{Cat: db.Cat, Hook: rec, QueryID: 1}
	if err := mal.Run(ctx, d.Templ, mal.StrV("GERMANY")); err != nil {
		t.Fatal(err)
	}
	rec.EndQuery(1)
	if ctx.Stats.LocalHits == 0 {
		t.Fatal("Q11 sub-query chain not reused locally")
	}
}

// TestQ11CSEMergesSubQueryChain is the compile-time counterpart: under
// the default pipeline the duplicate chain never reaches the recycler,
// and the answer is unchanged.
func TestQ11CSEMergesSubQueryChain(t *testing.T) {
	db := Generate(0.002, 12)
	paper := QueryMapOpt(opt.Options{SkipCSE: true})[11]
	merged := QueryMap()[11]
	if len(merged.Templ.Instrs) >= len(paper.Templ.Instrs) {
		t.Fatalf("CSE did not shrink Q11: %d vs %d instructions",
			len(merged.Templ.Instrs), len(paper.Templ.Instrs))
	}
	run := func(tmpl *mal.Template) *mal.Ctx {
		ctx := &mal.Ctx{Cat: db.Cat}
		if err := mal.Run(ctx, tmpl, mal.StrV("GERMANY")); err != nil {
			t.Fatal(err)
		}
		return ctx
	}
	a, b := run(paper.Templ), run(merged.Templ)
	if len(a.Results) != len(b.Results) {
		t.Fatalf("result arity differs: %d vs %d", len(a.Results), len(b.Results))
	}
	rec := recycler.New(db.Cat, recycler.Config{Admission: recycler.KeepAll})
	defer rec.Close()
	ctx := &mal.Ctx{Cat: db.Cat, Hook: rec, QueryID: 1}
	rec.BeginQuery(1, merged.Templ.ID)
	if err := mal.Run(ctx, merged.Templ, mal.StrV("GERMANY")); err != nil {
		t.Fatal(err)
	}
	rec.EndQuery(1)
	if ctx.Stats.LocalHits != 0 {
		t.Fatalf("local hits = %d, want 0 after CSE", ctx.Stats.LocalHits)
	}
}

func TestQ6NoOverlap(t *testing.T) {
	db := Generate(0.002, 13)
	rec := recycler.New(db.Cat, recycler.Config{Admission: recycler.KeepAll})
	d := QueryMap()[6]
	rng := rand.New(rand.NewSource(5))
	var last *mal.Ctx
	for i := uint64(1); i <= 3; i++ {
		rec.BeginQuery(i, d.Templ.ID)
		ctx := &mal.Ctx{Cat: db.Cat, Hook: rec, QueryID: i}
		if err := mal.Run(ctx, d.Templ, d.Params(rng)...); err != nil {
			t.Fatal(err)
		}
		rec.EndQuery(i)
		last = ctx
	}
	if last.Stats.HitsNonBind > 0 && last.Stats.Subsumed == 0 {
		t.Fatalf("Q6 with distinct params should not hit: %+v", last.Stats)
	}
}

func TestRefreshFunctions(t *testing.T) {
	db := Generate(0.002, 20)
	ordersBefore := db.Table("orders").NumRows()
	liBefore := db.Table("lineitem").NumRows()
	keys := db.RF1(8)
	if len(keys) != 8 {
		t.Fatalf("RF1 inserted %d orders", len(keys))
	}
	if db.Table("orders").NumRows() != ordersBefore+8 {
		t.Fatal("orders not inserted")
	}
	if db.Table("lineitem").NumRows() <= liBefore {
		t.Fatal("lineitems not inserted")
	}
	midLi := db.Table("lineitem").NumRows()
	deleted := db.RF2(8)
	if len(deleted) != 8 {
		t.Fatalf("RF2 deleted %d orders", len(deleted))
	}
	if db.Table("orders").NumRows() != ordersBefore {
		t.Fatal("orders not deleted")
	}
	if db.Table("lineitem").NumRows() >= midLi {
		t.Fatal("lineitems not deleted")
	}
	// Deleted keys are the oldest ones, not the fresh inserts.
	for _, k := range deleted {
		for _, nk := range keys {
			if k == nk {
				t.Fatal("RF2 deleted a fresh key")
			}
		}
	}
}

func TestUpdateBlockInvalidatesRecycler(t *testing.T) {
	db := Generate(0.002, 21)
	rec := recycler.New(db.Cat, recycler.Config{Admission: recycler.KeepAll})
	d := QueryMap()[18] // lineitem-derived
	rec.BeginQuery(1, d.Templ.ID)
	ctx := &mal.Ctx{Cat: db.Cat, Hook: rec, QueryID: 1}
	if err := mal.Run(ctx, d.Templ, mal.IntV(180)); err != nil {
		t.Fatal(err)
	}
	rec.EndQuery(1)
	if rec.Pool().Len() == 0 {
		t.Fatal("nothing admitted")
	}
	db.UpdateBlock()
	// All lineitem/orders-derived entries are invalidated.
	for _, e := range rec.Pool().All() {
		if e.Reads("sys.lineitem") || e.Reads("sys.orders") {
			t.Fatalf("stale entry survived: %s", e.Sig)
		}
	}
	// Correctness after the update block.
	rec.BeginQuery(2, d.Templ.ID)
	ctx2 := &mal.Ctx{Cat: db.Cat, Hook: rec, QueryID: 2}
	if err := mal.Run(ctx2, d.Templ, mal.IntV(180)); err != nil {
		t.Fatal(err)
	}
	rec.EndQuery(2)
	if ctx2.Results[0].Val.I != refQ18(db, 180) {
		t.Fatalf("Q18 after update = %d, want %d", ctx2.Results[0].Val.I, refQ18(db, 180))
	}
}

func TestAllQueriesRunAfterUpdates(t *testing.T) {
	db := Generate(0.002, 22)
	rec := recycler.New(db.Cat, recycler.Config{Admission: recycler.KeepAll})
	rng := rand.New(rand.NewSource(3))
	qid := uint64(0)
	for round := 0; round < 2; round++ {
		for _, d := range Queries() {
			qid++
			rec.BeginQuery(qid, d.Templ.ID)
			ctx := &mal.Ctx{Cat: db.Cat, Hook: rec, QueryID: qid}
			if err := mal.Run(ctx, d.Templ, d.Params(rng)...); err != nil {
				t.Fatalf("%s after updates: %v", d.Name, err)
			}
			rec.EndQuery(qid)
		}
		db.UpdateBlock()
	}
}

func TestParamsMatchTemplates(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, d := range Queries() {
		params := d.Params(rng)
		if len(params) != len(d.Templ.Params) {
			t.Fatalf("%s: %d params generated, template wants %d", d.Name, len(params), len(d.Templ.Params))
		}
		for i, p := range params {
			if p.Kind != d.Templ.Params[i].Kind {
				t.Fatalf("%s param %d: kind %v != %v", d.Name, i, p.Kind, d.Templ.Params[i].Kind)
			}
		}
	}
}

func TestMarkedInstructionCounts(t *testing.T) {
	// Every query must expose a non-trivial number of monitored
	// instructions (Table II's # column).
	for _, d := range Queries() {
		n := d.Templ.MarkedCount(true)
		if n < 3 {
			t.Errorf("%s: only %d marked non-bind instructions", d.Name, n)
		}
	}
}
