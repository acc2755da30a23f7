package sqlfe

import (
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/bat"
	"repro/internal/catalog"
	"repro/internal/mal"
	"repro/internal/recycler"
)

func testCat(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	tb := cat.CreateTable("sys", "orders", []catalog.ColDef{
		{Name: "okey", Kind: bat.KInt},
		{Name: "total", Kind: bat.KFloat},
		{Name: "status", Kind: bat.KStr},
		{Name: "odate", Kind: bat.KDate},
	})
	d := func(y, m, dd int) bat.Date { return algebra.MkDate(y, m, dd) }
	tb.Append([]catalog.Row{
		{"okey": int64(1), "total": 10.0, "status": "open", "odate": d(1996, 1, 10)},
		{"okey": int64(2), "total": 20.0, "status": "open", "odate": d(1996, 2, 10)},
		{"okey": int64(3), "total": 30.0, "status": "done", "odate": d(1996, 3, 10)},
		{"okey": int64(4), "total": 40.0, "status": "done", "odate": d(1996, 4, 10)},
		{"okey": int64(5), "total": 50.0, "status": "failed late", "odate": d(1996, 5, 10)},
	})
	return cat
}

func exec(t *testing.T, cat *catalog.Catalog, hook mal.RecyclerHook, qid uint64, src string) *mal.Ctx {
	t.Helper()
	f := NewFrontend(cat)
	return execVia(t, f, cat, hook, qid, src)
}

func execVia(t *testing.T, f *Frontend, cat *catalog.Catalog, hook mal.RecyclerHook, qid uint64, src string) *mal.Ctx {
	t.Helper()
	tmpl, params, err := f.Compile(src)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	ctx := &mal.Ctx{Cat: cat, Hook: hook, QueryID: qid}
	if r, ok := hook.(*recycler.Recycler); ok && r != nil {
		r.BeginQuery(qid, tmpl.ID)
		defer r.EndQuery(qid)
	}
	if err := mal.Run(ctx, tmpl, params...); err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	return ctx
}

func TestCountStar(t *testing.T) {
	cat := testCat(t)
	ctx := exec(t, cat, nil, 1, "SELECT COUNT(*) FROM sys.orders WHERE total >= 20")
	if got := ctx.Results[0].Val.I; got != 4 {
		t.Fatalf("count = %d, want 4", got)
	}
}

func TestEqualityAndBetween(t *testing.T) {
	cat := testCat(t)
	ctx := exec(t, cat, nil, 1, "SELECT COUNT(*) FROM sys.orders WHERE status = 'open'")
	if ctx.Results[0].Val.I != 2 {
		t.Fatalf("eq count = %d", ctx.Results[0].Val.I)
	}
	ctx = exec(t, cat, nil, 2, "SELECT COUNT(*) FROM sys.orders WHERE total BETWEEN 20 AND 40")
	if ctx.Results[0].Val.I != 3 {
		t.Fatalf("between count = %d", ctx.Results[0].Val.I)
	}
}

func TestDatePredicates(t *testing.T) {
	cat := testCat(t)
	ctx := exec(t, cat, nil, 1,
		"SELECT COUNT(*) FROM sys.orders WHERE odate >= DATE '1996-02-01' AND odate < DATE '1996-05-01'")
	if ctx.Results[0].Val.I != 3 {
		t.Fatalf("date count = %d", ctx.Results[0].Val.I)
	}
}

func TestLikeAndNotLike(t *testing.T) {
	cat := testCat(t)
	ctx := exec(t, cat, nil, 1, "SELECT COUNT(*) FROM sys.orders WHERE status LIKE '%ail%'")
	if ctx.Results[0].Val.I != 1 {
		t.Fatalf("like count = %d", ctx.Results[0].Val.I)
	}
	ctx = exec(t, cat, nil, 2, "SELECT COUNT(*) FROM sys.orders WHERE status NOT LIKE 'open'")
	if ctx.Results[0].Val.I != 3 {
		t.Fatalf("not like count = %d", ctx.Results[0].Val.I)
	}
}

func TestAggregates(t *testing.T) {
	cat := testCat(t)
	ctx := exec(t, cat, nil, 1,
		"SELECT SUM(total) AS s, AVG(total) AS a, COUNT(DISTINCT status) AS d FROM sys.orders WHERE okey <= 4")
	if ctx.Results[0].Val.F != 100 {
		t.Fatalf("sum = %v", ctx.Results[0].Val.F)
	}
	if ctx.Results[1].Val.F != 25 {
		t.Fatalf("avg = %v", ctx.Results[1].Val.F)
	}
	if ctx.Results[2].Val.I != 2 {
		t.Fatalf("count distinct = %v", ctx.Results[2].Val.I)
	}
}

func TestMinMax(t *testing.T) {
	cat := testCat(t)
	ctx := exec(t, cat, nil, 1, "SELECT MIN(total) AS lo, MAX(total) AS hi FROM sys.orders")
	lo := ctx.Results[0].Val.Bat
	hi := ctx.Results[1].Val.Bat
	if lo.Tail.Get(0) != 10.0 || hi.Tail.Get(0) != 50.0 {
		t.Fatalf("min/max = %v/%v", lo.Tail.Get(0), hi.Tail.Get(0))
	}
}

func TestGroupBy(t *testing.T) {
	cat := testCat(t)
	ctx := exec(t, cat, nil, 1,
		"SELECT status, COUNT(*) AS n, SUM(total) AS s FROM sys.orders GROUP BY status")
	keys := ctx.Results[0].Val.Bat
	counts := ctx.Results[1].Val.Bat
	sums := ctx.Results[2].Val.Bat
	if keys.Len() != 3 || counts.Len() != 3 || sums.Len() != 3 {
		t.Fatalf("group sizes: %d/%d/%d", keys.Len(), counts.Len(), sums.Len())
	}
	// First group in row order is "open": 2 rows totalling 30.
	if keys.Tail.Get(0) != "open" || counts.Tail.Get(0) != int64(2) || sums.Tail.Get(0) != 30.0 {
		t.Fatalf("group 0 = %v/%v/%v", keys.Tail.Get(0), counts.Tail.Get(0), sums.Tail.Get(0))
	}
}

func TestGroupByWithPredicate(t *testing.T) {
	cat := testCat(t)
	ctx := exec(t, cat, nil, 1,
		"SELECT status, COUNT(*) AS n FROM sys.orders WHERE total > 15 GROUP BY status")
	keys := ctx.Results[0].Val.Bat
	if keys.Len() != 3 {
		t.Fatalf("groups = %d", keys.Len())
	}
	if keys.Tail.Get(0) != "open" || ctx.Results[1].Val.Bat.Tail.Get(0) != int64(1) {
		t.Fatalf("filtered group wrong: %v %v", keys.Tail.Get(0), ctx.Results[1].Val.Bat.Tail.Get(0))
	}
}

func TestProjectionWithLimit(t *testing.T) {
	cat := testCat(t)
	ctx := exec(t, cat, nil, 1, "SELECT okey, total FROM sys.orders WHERE total > 15 LIMIT 2")
	if ctx.Results[0].Val.Bat.Len() != 2 || ctx.Results[1].Val.Bat.Len() != 2 {
		t.Fatalf("limit sizes: %d/%d", ctx.Results[0].Val.Bat.Len(), ctx.Results[1].Val.Bat.Len())
	}
}

func TestOrderByLimit(t *testing.T) {
	cat := testCat(t)
	ctx := exec(t, cat, nil, 1, "SELECT total FROM sys.orders ORDER BY total DESC LIMIT 2")
	b := ctx.Results[0].Val.Bat
	if b.Len() != 2 {
		t.Fatalf("rows = %d", b.Len())
	}
	vals := map[float64]bool{b.Tail.Get(0).(float64): true, b.Tail.Get(1).(float64): true}
	if !vals[50.0] || !vals[40.0] {
		t.Fatalf("top-2 wrong: %v", vals)
	}
}

func TestTemplateCacheSharesShapes(t *testing.T) {
	cat := testCat(t)
	f := NewFrontend(cat)
	t1, p1, err := f.Compile("SELECT COUNT(*) FROM sys.orders WHERE total >= 20")
	if err != nil {
		t.Fatal(err)
	}
	t2, p2, err := f.Compile("SELECT COUNT(*) FROM sys.orders WHERE total >= 35")
	if err != nil {
		t.Fatal(err)
	}
	if t1 != t2 {
		t.Fatal("same shape should share one template")
	}
	if p1[0].F == p2[0].F {
		t.Fatal("parameters must differ")
	}
	if st := f.CacheStats(); st.Size != 1 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("cache stats: %+v", st)
	}
	// A different shape compiles separately.
	t3, _, err := f.Compile("SELECT COUNT(*) FROM sys.orders WHERE total < 20")
	if err != nil {
		t.Fatal(err)
	}
	if t3 == t1 || f.CacheSize() != 2 {
		t.Fatal("different shapes must not share templates")
	}
}

func TestSQLWithRecyclerEndToEnd(t *testing.T) {
	cat := testCat(t)
	rec := recycler.New(cat, recycler.Config{Admission: recycler.KeepAll, Subsumption: true})
	f := NewFrontend(cat)
	// Same shape, different constants: the first fills the pool, the
	// second reuses the shared template's binds and subsumes the
	// narrower range.
	execVia(t, f, cat, rec, 1, "SELECT COUNT(*) FROM sys.orders WHERE total BETWEEN 10 AND 50")
	ctx := execVia(t, f, cat, rec, 2, "SELECT COUNT(*) FROM sys.orders WHERE total BETWEEN 20 AND 40")
	if ctx.Results[0].Val.I != 3 {
		t.Fatalf("count = %d", ctx.Results[0].Val.I)
	}
	if ctx.Stats.Subsumed == 0 {
		t.Fatalf("expected subsumption across SQL instances: %+v", ctx.Stats)
	}
	// Exact repetition: full hit.
	ctx = execVia(t, f, cat, rec, 3, "SELECT COUNT(*) FROM sys.orders WHERE total BETWEEN 20 AND 40")
	if ctx.Stats.HitsNonBind == 0 {
		t.Fatal("repeat not served from pool")
	}
}

func TestParseErrorsSQL(t *testing.T) {
	cat := testCat(t)
	f := NewFrontend(cat)
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM sys.orders",
		"SELECT okey FROM",
		"SELECT okey FROM sys.orders WHERE",
		"SELECT okey FROM sys.orders WHERE okey !! 3",
		"SELECT okey FROM sys.orders LIMIT 0",
		"SELECT okey FROM nosuch.table",
		"SELECT nosuch FROM sys.orders WHERE nosuch = 3",
		"SELECT okey FROM sys.orders WHERE okey = 'str'",  // type mismatch
		"SELECT okey FROM sys.orders WHERE status LIKE 3", // like needs string
		"SELECT okey FROM sys.orders WHERE odate > 5",     // date needs DATE
		"SELECT okey FROM sys.orders WHERE okey <> 3",     // <> non-string
		// Out-of-range literals are errors, not silently 0.
		"SELECT okey FROM sys.orders WHERE okey > 9223372036854775808",
		"SELECT okey FROM sys.orders WHERE total > 1" + strings.Repeat("0", 400) + ".5",
	}
	for _, src := range bad {
		if _, _, err := f.Compile(src); err == nil {
			t.Errorf("Compile(%q) should fail", src)
		}
	}
}

func TestShapeStability(t *testing.T) {
	q1, err := Parse("SELECT COUNT(*) FROM sys.orders WHERE total >= 20 AND status = 'open'")
	if err != nil {
		t.Fatal(err)
	}
	q2, err := Parse("select count(*) from sys.orders where total >= 99 and status = 'done'")
	if err != nil {
		t.Fatal(err)
	}
	if q1.Shape() != q2.Shape() {
		t.Fatalf("shapes differ:\n%s\n%s", q1.Shape(), q2.Shape())
	}
	q3, _ := Parse("SELECT COUNT(*) FROM sys.orders WHERE total > 20 AND status = 'open'")
	if q1.Shape() == q3.Shape() {
		t.Fatal("different operators must produce different shapes")
	}
}

func TestLexerEscapesAndErrors(t *testing.T) {
	toks, err := lex("SELECT 'it''s' FROM t")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, tok := range toks {
		if tok.kind == tkString && tok.text == "it's" {
			found = true
		}
	}
	if !found {
		t.Fatal("escaped quote not lexed")
	}
	if _, err := lex("SELECT 'unterminated"); err == nil {
		t.Fatal("unterminated string must error")
	}
	if _, err := lex("SELECT ~"); err == nil {
		t.Fatal("bad character must error")
	}
}

func TestHavingFiltersGroups(t *testing.T) {
	cat := testCat(t)
	ctx := exec(t, cat, nil, 1,
		"SELECT status, COUNT(*) AS n, SUM(total) AS s FROM sys.orders GROUP BY status HAVING SUM(total) > 40")
	keys := ctx.Results[0].Val.Bat
	// Groups: open=30, done=70, "failed late"=50 -> done and failed.
	if keys.Len() != 2 {
		t.Fatalf("having groups = %d, want 2: %s", keys.Len(), keys.Dump(5))
	}
	vals := map[string]bool{}
	for i := 0; i < keys.Len(); i++ {
		vals[keys.Tail.Get(i).(string)] = true
	}
	if !vals["done"] || !vals["failed late"] {
		t.Fatalf("having kept wrong groups: %v", vals)
	}
	sums := ctx.Results[2].Val.Bat
	if sums.Len() != 2 {
		t.Fatalf("sums not restricted: %d", sums.Len())
	}
}

func TestHavingCountStar(t *testing.T) {
	cat := testCat(t)
	ctx := exec(t, cat, nil, 1,
		"SELECT status FROM sys.orders GROUP BY status HAVING COUNT(*) >= 2")
	keys := ctx.Results[0].Val.Bat
	if keys.Len() != 2 { // open (2) and done (2)
		t.Fatalf("groups = %d", keys.Len())
	}
}

func TestHavingTemplateReuseAcrossLevels(t *testing.T) {
	// The paper's Q18 case in SQL: the grouping machinery is
	// parameter independent; only the HAVING bound changes.
	cat := testCat(t)
	rec := recycler.New(cat, recycler.Config{Admission: recycler.KeepAll})
	f := NewFrontend(cat)
	execVia(t, f, cat, rec, 1,
		"SELECT status, SUM(total) AS s FROM sys.orders GROUP BY status HAVING SUM(total) > 40")
	ctx := execVia(t, f, cat, rec, 2,
		"SELECT status, SUM(total) AS s FROM sys.orders GROUP BY status HAVING SUM(total) > 60")
	if ctx.Stats.GlobalHits == 0 {
		t.Fatalf("grouping machinery not reused across HAVING levels: %+v", ctx.Stats)
	}
	if ctx.Results[0].Val.Bat.Len() != 1 { // only done=70
		t.Fatalf("having>60 groups = %d", ctx.Results[0].Val.Bat.Len())
	}
}

func TestHavingErrors(t *testing.T) {
	cat := testCat(t)
	f := NewFrontend(cat)
	bad := []string{
		"SELECT status FROM sys.orders HAVING COUNT(*) > 2", // no GROUP BY
		"SELECT status FROM sys.orders GROUP BY status HAVING COUNT(*) <> 2",
		"SELECT status FROM sys.orders GROUP BY status HAVING SUM(nosuch) > 2",
		"SELECT status FROM sys.orders GROUP BY status HAVING COUNT(*) > 'x'",
	}
	for _, src := range bad {
		if _, _, err := f.Compile(src); err == nil {
			t.Errorf("Compile(%q) should fail", src)
		}
	}
}
