package repro

import (
	"testing"

	"repro/internal/bat"
	"repro/internal/catalog"
	"repro/internal/mal"
	"repro/internal/recycler"
)

func demoCatalog() *catalog.Catalog {
	cat := NewCatalog()
	tb := cat.CreateTable("demo", "t", []catalog.ColDef{
		{Name: "k", Kind: bat.KInt},
		{Name: "v", Kind: bat.KFloat},
	})
	rows := make([]catalog.Row, 1000)
	for i := range rows {
		rows[i] = catalog.Row{"k": int64(i), "v": float64(i) / 2}
	}
	tb.Append(rows)
	return cat
}

func demoTemplate() *mal.Template {
	b := mal.NewBuilder("demo_sum")
	lo := b.Param("A0", mal.VInt)
	hi := b.Param("A1", mal.VInt)
	k := b.Op1("sql", "bind", mal.C(mal.StrV("demo")), mal.C(mal.StrV("t")), mal.C(mal.StrV("k")), mal.C(mal.IntV(0)))
	sel := b.Op1("algebra", "select", k, lo, hi, mal.C(mal.BoolV(true)), mal.C(mal.BoolV(true)))
	v := b.Op1("sql", "bind", mal.C(mal.StrV("demo")), mal.C(mal.StrV("t")), mal.C(mal.StrV("v")), mal.C(mal.IntV(0)))
	vals := b.Op1("algebra", "semijoin", v, sel)
	sum := b.Op1("aggr", "sumFlt", vals)
	b.Do("sql", "exportValue", mal.C(mal.StrV("sum")), sum)
	return b.Freeze()
}

func TestEngineNaive(t *testing.T) {
	eng := NewEngine(demoCatalog())
	tmpl := eng.Compile(demoTemplate())
	res, err := eng.Exec(tmpl, mal.IntV(0), mal.IntV(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Results[0].Val.F != 3 { // 0 + 0.5 + 1 + 1.5
		t.Fatalf("sum = %v", res.Results[0].Val.F)
	}
	if eng.Recycler() != nil {
		t.Fatal("naive engine must have no recycler")
	}
}

func TestEngineWithRecycler(t *testing.T) {
	eng := NewEngine(demoCatalog(), WithRecycler(recycler.Config{Admission: recycler.KeepAll}))
	tmpl := eng.Compile(demoTemplate())
	r1, err := eng.Exec(tmpl, mal.IntV(10), mal.IntV(20))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := eng.Exec(tmpl, mal.IntV(10), mal.IntV(20))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Results[0].Val.F != r2.Results[0].Val.F {
		t.Fatal("results differ")
	}
	if r2.Stats.HitsNonBind != 3 {
		t.Fatalf("second run hits = %d, want 3", r2.Stats.HitsNonBind)
	}
	if eng.Recycler().Pool().Len() == 0 {
		t.Fatal("pool empty")
	}
}

func TestEngineMeasureOption(t *testing.T) {
	eng := NewEngine(demoCatalog(), WithMeasure())
	tmpl := eng.Compile(demoTemplate())
	res, err := eng.Exec(tmpl, mal.IntV(0), mal.IntV(100))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Marked == 0 {
		t.Fatal("measure mode did not count marked instructions")
	}
}

func TestEngineParamErrors(t *testing.T) {
	eng := NewEngine(demoCatalog())
	tmpl := eng.Compile(demoTemplate())
	if _, err := eng.Exec(tmpl, mal.IntV(1)); err == nil {
		t.Fatal("want arity error")
	}
}

func TestEngineExecSQL(t *testing.T) {
	eng := NewEngine(demoCatalog(), WithRecycler(recycler.Config{Admission: recycler.KeepAll, Subsumption: true}))
	r1, err := eng.ExecSQL("SELECT COUNT(*) FROM demo.t WHERE k BETWEEN 10 AND 20")
	if err != nil {
		t.Fatal(err)
	}
	if r1.Results[0].Val.I != 11 {
		t.Fatalf("count = %d", r1.Results[0].Val.I)
	}
	// Same shape, narrower range: template cached, select subsumed.
	r2, err := eng.ExecSQL("SELECT COUNT(*) FROM demo.t WHERE k BETWEEN 12 AND 18")
	if err != nil {
		t.Fatal(err)
	}
	if r2.Results[0].Val.I != 7 {
		t.Fatalf("count2 = %d", r2.Results[0].Val.I)
	}
	if r2.Stats.Subsumed == 0 {
		t.Fatalf("expected subsumption: %+v", r2.Stats)
	}
	// Errors surface.
	if _, err := eng.ExecSQL("SELEC nonsense"); err == nil {
		t.Fatal("want parse error")
	}
}
