package mal

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/bat"
	"repro/internal/catalog"
)

func testCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	c := catalog.New()
	orders := c.CreateTable("sys", "orders", []catalog.ColDef{
		{Name: "o_orderkey", Kind: bat.KInt},
		{Name: "o_orderdate", Kind: bat.KDate},
	})
	d := func(y, m, dd int) bat.Date { return algebra.MkDate(y, m, dd) }
	orders.Append([]catalog.Row{
		{"o_orderkey": int64(100), "o_orderdate": d(1996, 6, 15)},
		{"o_orderkey": int64(101), "o_orderdate": d(1996, 7, 15)},
		{"o_orderkey": int64(102), "o_orderdate": d(1996, 8, 15)},
		{"o_orderkey": int64(103), "o_orderdate": d(1996, 11, 15)},
	})
	li := c.CreateTable("sys", "lineitem", []catalog.ColDef{
		{Name: "l_orderkey", Kind: bat.KInt},
		{Name: "l_returnflag", Kind: bat.KStr},
	})
	li.Append([]catalog.Row{
		{"l_orderkey": int64(101), "l_returnflag": "R"},
		{"l_orderkey": int64(101), "l_returnflag": "N"},
		{"l_orderkey": int64(102), "l_returnflag": "R"},
		{"l_orderkey": int64(103), "l_returnflag": "R"},
	})
	li.DefineJoinIndex("li_fkey", "l_orderkey", orders, "o_orderkey")
	return c
}

// exampleTemplate builds the paper's running example (Fig. 1): count
// distinct orderkeys of orders in a date window having a lineitem with
// a given return flag.
func exampleTemplate() *Template {
	b := NewBuilder("s1_2")
	a0 := b.Param("A0", VDate)
	a1 := b.Param("A1", VDate)
	a2 := b.Param("A2", VInt)
	a3 := b.Param("A3", VStr)

	x5 := b.Op1("sql", "bind", C(StrV("sys")), C(StrV("lineitem")), C(StrV("l_returnflag")), C(IntV(0)))
	x11 := b.Op1("algebra", "uselect", x5, a3)
	x14 := b.Op1("algebra", "markT", x11, C(OidV(0)))
	x15 := b.Op1("bat", "reverse", x14)
	x16 := b.Op1("sql", "bindIdxbat", C(StrV("sys")), C(StrV("lineitem")), C(StrV("li_fkey")))
	x18 := b.Op1("algebra", "join", x15, x16)
	x19 := b.Op1("sql", "bind", C(StrV("sys")), C(StrV("orders")), C(StrV("o_orderdate")), C(IntV(0)))
	x25 := b.Op1("mtime", "addmonths", a1, a2)
	x26 := b.Op1("algebra", "select", x19, a0, x25, C(BoolV(true)), C(BoolV(false)))
	x30 := b.Op1("algebra", "markT", x26, C(OidV(0)))
	x31 := b.Op1("bat", "reverse", x30)
	x32 := b.Op1("sql", "bind", C(StrV("sys")), C(StrV("orders")), C(StrV("o_orderkey")), C(IntV(0)))
	x34 := b.Op1("bat", "mirror", x32)
	x35 := b.Op1("algebra", "join", x31, x34)
	x36 := b.Op1("bat", "reverse", x35)
	x37 := b.Op1("algebra", "join", x18, x36)
	x38 := b.Op1("bat", "reverse", x37)
	x40 := b.Op1("algebra", "markT", x38, C(OidV(0)))
	x41 := b.Op1("bat", "reverse", x40)
	x45 := b.Op1("algebra", "join", x31, x32)
	x46 := b.Op1("algebra", "join", x41, x45)
	x49 := b.Op1("algebra", "selectNotNil", x46)
	x50 := b.Op1("bat", "reverse", x49)
	x51 := b.Op1("algebra", "kunique", x50)
	x52 := b.Op1("bat", "reverse", x51)
	x53 := b.Op1("aggr", "count", x52)
	b.Do("sql", "exportValue", C(StrV("L1")), x53)
	return b.Freeze()
}

func runExample(t *testing.T, c *catalog.Catalog, tmpl *Template, retflag string, lo bat.Date, months int64) int64 {
	t.Helper()
	ctx := &Ctx{Cat: c}
	err := Run(ctx, tmpl,
		DateV(lo), DateV(lo), IntV(months), StrV(retflag))
	if err != nil {
		t.Fatal(err)
	}
	if len(ctx.Results) != 1 {
		t.Fatalf("results = %d", len(ctx.Results))
	}
	return ctx.Results[0].Val.I
}

func TestExampleQueryCorrectness(t *testing.T) {
	c := testCatalog(t)
	tmpl := exampleTemplate()
	// Window Jul..Oct (exclusive hi): orders 101 (Jul), 102 (Aug) are
	// inside; both have an 'R' lineitem -> count distinct = 2.
	got := runExample(t, c, tmpl, "R", algebra.MkDate(1996, 7, 1), 3)
	if got != 2 {
		t.Fatalf("count = %d, want 2", got)
	}
	// Flag 'N': only order 101 has an N item.
	got = runExample(t, c, tmpl, "N", algebra.MkDate(1996, 7, 1), 3)
	if got != 1 {
		t.Fatalf("count = %d, want 1", got)
	}
	// Window containing nothing.
	got = runExample(t, c, tmpl, "R", algebra.MkDate(1990, 1, 1), 1)
	if got != 0 {
		t.Fatalf("count = %d, want 0", got)
	}
}

func TestRunParamValidation(t *testing.T) {
	c := testCatalog(t)
	tmpl := exampleTemplate()
	ctx := &Ctx{Cat: c}
	if err := Run(ctx, tmpl, DateV(0)); err == nil {
		t.Fatal("want arity error")
	}
	if err := Run(ctx, tmpl, IntV(0), DateV(0), IntV(0), StrV("")); err == nil {
		t.Fatal("want kind error")
	}
}

func TestUnknownOp(t *testing.T) {
	b := NewBuilder("bad")
	b.Op1("nope", "missing")
	tmpl := b.Freeze()
	ctx := &Ctx{Cat: catalog.New()}
	if err := Run(ctx, tmpl); err == nil {
		t.Fatal("want unknown-op error")
	}
}

func TestValueKeyAndEquality(t *testing.T) {
	if IntV(3).Key() == IntV(4).Key() {
		t.Fatal("distinct ints share keys")
	}
	if !StrV("x").EqualConst(StrV("x")) || StrV("x").EqualConst(StrV("y")) {
		t.Fatal("string equality wrong")
	}
	if IntV(1).EqualConst(FloatV(1)) {
		t.Fatal("cross-kind equality must fail")
	}
	bv := BatV(bat.NewDenseHead(bat.NewInts([]int64{1})))
	bv.Prov = 7
	if bv.Key() != "e7" {
		t.Fatalf("bat key = %q", bv.Key())
	}
	if bv.EqualConst(bv) {
		t.Fatal("bats must not compare as consts")
	}
}

func TestValueStringAndBytes(t *testing.T) {
	if DateV(algebra.MkDate(1996, 7, 1)).String() != "1996-07-01" {
		t.Fatalf("date string = %s", DateV(algebra.MkDate(1996, 7, 1)).String())
	}
	if IntV(5).Bytes() != 16 || IntV(5).Tuples() != 1 {
		t.Fatal("scalar accounting wrong")
	}
	b := BatV(bat.NewDenseHead(bat.NewInts([]int64{1, 2, 3})))
	if b.Tuples() != 3 || b.Bytes() <= 0 {
		t.Fatal("bat accounting wrong")
	}
}

func TestTemplateStringRendersMarks(t *testing.T) {
	tmpl := exampleTemplate()
	tmpl.Instrs[0].Marked = true
	s := tmpl.String()
	if len(s) == 0 {
		t.Fatal("empty render")
	}
}

// countingHook counts hook invocations.
type countingHook struct {
	entries, exits atomic.Int64
}

func (h *countingHook) Entry(_ *Ctx, _ int, _ *Instr, _ []Value) EntryResult {
	h.entries.Add(1)
	return EntryResult{}
}

func (h *countingHook) Exit(_ *Ctx, _ int, _ *Instr, _ []Value, _ Value, _ time.Duration, _ *Rewrite) uint64 {
	h.exits.Add(1)
	return 0
}

func TestHookWrapsMarkedInstructions(t *testing.T) {
	c := testCatalog(t)
	tmpl := exampleTemplate()
	// Mark everything except scalar/export ops by hand.
	marked := 0
	for i := range tmpl.Instrs {
		in := &tmpl.Instrs[i]
		if in.Module == "mtime" || in.Op == "exportValue" {
			continue
		}
		in.Marked = true
		marked++
	}
	h := &countingHook{}
	ctx := &Ctx{Cat: c, Hook: h}
	err := Run(ctx, tmpl, DateV(algebra.MkDate(1996, 7, 1)), DateV(algebra.MkDate(1996, 7, 1)), IntV(3), StrV("R"))
	if err != nil {
		t.Fatal(err)
	}
	if h.entries.Load() != int64(marked) || h.exits.Load() != int64(marked) {
		t.Fatalf("hook calls = %d/%d, want %d", h.entries.Load(), h.exits.Load(), marked)
	}
	if ctx.Stats.Marked != marked {
		t.Fatalf("stats.Marked = %d, want %d", ctx.Stats.Marked, marked)
	}
	if ctx.Stats.MarkedNonBind != marked-3-1 { // 3 binds + 1 bindIdx are sql module
		t.Fatalf("stats.MarkedNonBind = %d", ctx.Stats.MarkedNonBind)
	}
}

type hitHook struct {
	canned Value
}

func (h *hitHook) Entry(_ *Ctx, _ int, in *Instr, _ []Value) EntryResult {
	if in.Name() == "aggr.count" {
		return EntryResult{Hit: true, Val: h.canned}
	}
	return EntryResult{}
}

func (h *hitHook) Exit(_ *Ctx, _ int, _ *Instr, _ []Value, _ Value, _ time.Duration, _ *Rewrite) uint64 {
	return 0
}

func TestHookHitSkipsExecution(t *testing.T) {
	c := testCatalog(t)
	tmpl := exampleTemplate()
	for i := range tmpl.Instrs {
		if tmpl.Instrs[i].Name() == "aggr.count" {
			tmpl.Instrs[i].Marked = true
		}
	}
	ctx := &Ctx{Cat: c, Hook: &hitHook{canned: IntV(42)}}
	err := Run(ctx, tmpl, DateV(algebra.MkDate(1996, 7, 1)), DateV(algebra.MkDate(1996, 7, 1)), IntV(3), StrV("R"))
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Results[0].Val.I != 42 {
		t.Fatalf("hit value not used: %d", ctx.Results[0].Val.I)
	}
}

func TestMeasureModeCollectsPotential(t *testing.T) {
	c := testCatalog(t)
	tmpl := exampleTemplate()
	for i := range tmpl.Instrs {
		if tmpl.Instrs[i].Module == "algebra" {
			tmpl.Instrs[i].Marked = true
		}
	}
	ctx := &Ctx{Cat: c, Measure: true}
	err := Run(ctx, tmpl, DateV(algebra.MkDate(1996, 7, 1)), DateV(algebra.MkDate(1996, 7, 1)), IntV(3), StrV("R"))
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Stats.Marked == 0 {
		t.Fatal("measure mode did not count marked instructions")
	}
}

func TestMarkedCount(t *testing.T) {
	tmpl := exampleTemplate()
	for i := range tmpl.Instrs {
		tmpl.Instrs[i].Marked = true
	}
	all := tmpl.MarkedCount(false)
	nonBind := tmpl.MarkedCount(true)
	// 3 binds + 1 bindIdxbat + 1 exportValue live in the sql module.
	if all <= nonBind || all-nonBind != 5 {
		t.Fatalf("MarkedCount: all=%d nonbind=%d", all, nonBind)
	}
}

func TestSelectBoundsOpenEnds(t *testing.T) {
	args := []Value{BatV(nil), VoidV(), IntV(5), BoolV(true), BoolV(false)}
	p, _ := FilterPred("algebra.select", args)
	lo, hi, il, ih := p.Range.Lo, p.Range.Hi, p.Range.IncLo, p.Range.IncHi
	if lo != nil || hi.(int64) != 5 || !il || ih {
		t.Fatalf("bounds = %v %v %v %v", lo, hi, il, ih)
	}
}

// TestDataflowErrorPropagates: the first failing instruction stops the
// query, and its error names the template, pc and operation.
func TestDataflowErrorPropagates(t *testing.T) {
	b := NewBuilder("bad")
	p := b.Param("P0", VInt)
	x := b.Op1("calc", "addInt", p, C(IntV(1)))
	y := b.Op1("nosuch", "op", x)
	b.Do("sql", "exportValue", C(StrV("y")), y)
	tmpl := b.Freeze()

	ctx := &Ctx{QueryID: 1}
	err := Run(ctx, tmpl, IntV(1))
	if err == nil || err.Error() != "mal: bad pc=1 nosuch.op: unknown operation" {
		t.Fatalf("want the unknown op's error, got %v", err)
	}
	if len(ctx.Results) != 0 {
		t.Fatalf("the export after the failure ran: %+v", ctx.Results)
	}
}
