package mal

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/algebra"
	"repro/internal/bat"
	"repro/internal/catalog"
)

// evalOp runs a single registered op against explicit values.
func evalOp(t *testing.T, ctx *Ctx, name string, args ...Value) Value {
	t.Helper()
	parts := splitName(name)
	in := &Instr{Module: parts[0], Op: parts[1], Ret: 0}
	v, err := Eval(ctx, in, args)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return v
}

func splitName(name string) [2]string {
	for i := range name {
		if name[i] == '.' {
			return [2]string{name[:i], name[i+1:]}
		}
	}
	panic("bad op name " + name)
}

func intsBat(vals ...int64) Value { return BatV(bat.NewDenseHead(bat.NewInts(vals))) }

func TestOpsRegistered(t *testing.T) {
	for _, name := range []string{
		"sql.bind", "sql.bindIdxbat", "sql.exportValue", "sql.exportCol",
		"algebra.select", "algebra.uselect", "algebra.likeselect",
		"algebra.notlikeselect", "algebra.selectNotNil", "algebra.join",
		"algebra.semijoin", "algebra.antisemijoin", "algebra.union",
		"algebra.kunique", "algebra.markT", "algebra.sort", "algebra.topn",
		"bat.reverse", "bat.mirror",
		"group.new", "group.derive", "group.heads",
		"aggr.countGrp", "aggr.sum", "aggr.avg", "aggr.min", "aggr.max",
		"aggr.count", "aggr.sumFlt", "aggr.sumInt", "aggr.avgFlt",
		"batcalc.mul", "batcalc.add", "batcalc.csub", "batcalc.cadd",
		"batcalc.cmul", "batcalc.int2dbl", "batcalc.year", "batcalc.lt",
		"mtime.addmonths", "mtime.addyears",
		"calc.mulFlt", "calc.addFlt", "calc.addInt",
	} {
		if !HasOp(name) {
			t.Errorf("op %s not registered", name)
		}
	}
}

func TestScalarCalcOps(t *testing.T) {
	ctx := &Ctx{}
	if v := evalOp(t, ctx, "calc.mulFlt", FloatV(3), FloatV(2)); v.F != 6 {
		t.Fatalf("mulFlt = %v", v.F)
	}
	if v := evalOp(t, ctx, "calc.addFlt", FloatV(3), FloatV(2)); v.F != 5 {
		t.Fatalf("addFlt = %v", v.F)
	}
	if v := evalOp(t, ctx, "calc.addInt", IntV(3), IntV(2)); v.I != 5 {
		t.Fatalf("addInt = %v", v.I)
	}
}

func TestOpArityAndTypeErrors(t *testing.T) {
	ctx := &Ctx{}
	bad := []struct {
		name string
		args []Value
	}{
		{"algebra.select", []Value{intsBat(1)}},                                          // arity
		{"algebra.join", []Value{intsBat(1), IntV(1)}},                                   // type
		{"algebra.select", []Value{IntV(1), IntV(0), IntV(1), BoolV(true), BoolV(true)}}, // non-bat
		{"sql.bind", []Value{StrV("sys")}},                                               // arity
		{"aggr.count", []Value{IntV(1)}},                                                 // non-bat
		{"batcalc.mul", []Value{intsBat(1), IntV(1)}},                                    // type
	}
	for _, c := range bad {
		parts := splitName(c.name)
		in := &Instr{Module: parts[0], Op: parts[1]}
		if _, err := Eval(ctx, in, c.args); err == nil {
			t.Errorf("%s with bad args: want error", c.name)
		}
	}
}

func TestBindUnknownTableAndColumn(t *testing.T) {
	ctx := &Ctx{Cat: catalog.New()}
	in := &Instr{Module: "sql", Op: "bind"}
	if _, err := Eval(ctx, in, []Value{StrV("sys"), StrV("nope"), StrV("c"), IntV(0)}); err == nil {
		t.Fatal("want unknown-table error")
	}
	cat := catalog.New()
	cat.CreateTable("sys", "t", []catalog.ColDef{{Name: "a", Kind: bat.KInt}})
	ctx = &Ctx{Cat: cat}
	if _, err := Eval(ctx, in, []Value{StrV("sys"), StrV("t"), StrV("nope"), IntV(0)}); err == nil {
		t.Fatal("want unknown-column error")
	}
}

func TestGroupOpsRoundTrip(t *testing.T) {
	ctx := &Ctx{}
	keys := BatV(bat.NewDenseHead(bat.NewInts([]int64{7, 8, 7, 9})))
	grp := evalOp(t, ctx, "group.new", keys)
	cnt := evalOp(t, ctx, "aggr.countGrp", grp)
	counts := cnt.Bat.Tail.(*bat.Ints).V
	if len(counts) != 3 || counts[0] != 2 {
		t.Fatalf("counts = %v", counts)
	}
	heads := evalOp(t, ctx, "group.heads", grp, keys)
	if heads.Bat.Len() != 3 {
		t.Fatalf("group heads = %d", heads.Bat.Len())
	}
	sub := BatV(bat.NewDenseHead(bat.NewInts([]int64{1, 1, 2, 2})))
	grp2 := evalOp(t, ctx, "group.derive", grp, sub)
	cnt2 := evalOp(t, ctx, "aggr.countGrp", grp2)
	if cnt2.Bat.Len() != 4 {
		t.Fatalf("derived groups = %d", cnt2.Bat.Len())
	}
}

func TestAggrOpsThroughRegistry(t *testing.T) {
	ctx := &Ctx{}
	vals := BatV(bat.NewDenseHead(bat.NewInts([]int64{10, 20, 30})))
	grp := evalOp(t, ctx, "group.new", BatV(bat.NewDenseHead(bat.NewInts([]int64{1, 1, 2}))))
	sum := evalOp(t, ctx, "aggr.sum", vals, grp)
	if sum.Bat.Tail.(*bat.Ints).V[0] != 30 {
		t.Fatal("aggr.sum wrong")
	}
	avg := evalOp(t, ctx, "aggr.avg", vals, grp)
	if avg.Bat.Tail.(*bat.Floats).V[0] != 15 {
		t.Fatal("aggr.avg wrong")
	}
	mn := evalOp(t, ctx, "aggr.min", vals, grp)
	mx := evalOp(t, ctx, "aggr.max", vals, grp)
	if mn.Bat.Tail.(*bat.Ints).V[0] != 10 || mx.Bat.Tail.(*bat.Ints).V[0] != 20 {
		t.Fatal("aggr.min/max wrong")
	}
	if v := evalOp(t, ctx, "aggr.sumInt", vals); v.I != 60 {
		t.Fatal("aggr.sumInt wrong")
	}
	if v := evalOp(t, ctx, "aggr.avgFlt", vals); v.F != 20 {
		t.Fatal("aggr.avgFlt wrong")
	}
}

func TestUnionAntiSemijoinOps(t *testing.T) {
	ctx := &Ctx{}
	mk := func(heads []bat.Oid) Value {
		b := bat.New(bat.NewOids(heads), bat.NewOids(heads))
		b.HeadSorted = true
		return BatV(b)
	}
	u := evalOp(t, ctx, "algebra.union", mk([]bat.Oid{1, 2}), mk([]bat.Oid{2, 3}))
	if u.Bat.Len() != 3 {
		t.Fatalf("union = %d rows", u.Bat.Len())
	}
	a := evalOp(t, ctx, "algebra.antisemijoin", mk([]bat.Oid{1, 2, 3}), mk([]bat.Oid{2}))
	if a.Bat.Len() != 2 {
		t.Fatalf("antisemijoin = %d rows", a.Bat.Len())
	}
}

func TestDateOps(t *testing.T) {
	ctx := &Ctx{}
	d := algebra.MkDate(1996, 7, 1)
	v := evalOp(t, ctx, "mtime.addmonths", DateV(d), IntV(3))
	if v.D != algebra.MkDate(1996, 10, 1) {
		t.Fatalf("addmonths = %v", v)
	}
	v = evalOp(t, ctx, "mtime.addyears", DateV(d), IntV(1))
	if v.D != algebra.MkDate(1997, 7, 1) {
		t.Fatalf("addyears = %v", v)
	}
	yb := BatV(bat.NewDenseHead(bat.NewDates([]bat.Date{d})))
	y := evalOp(t, ctx, "batcalc.year", yb)
	if y.Bat.Tail.(*bat.Ints).V[0] != 1996 {
		t.Fatal("batcalc.year wrong")
	}
}

func TestSortAndTopNOps(t *testing.T) {
	ctx := &Ctx{}
	b := intsBat(3, 1, 2)
	s := evalOp(t, ctx, "algebra.sort", b, BoolV(true))
	if s.Bat.Tail.Get(0) != int64(1) {
		t.Fatal("sort wrong")
	}
	top := evalOp(t, ctx, "algebra.topn", s, IntV(2))
	if top.Bat.Len() != 2 {
		t.Fatal("topn wrong")
	}
}

func TestExportOps(t *testing.T) {
	ctx := &Ctx{}
	evalOp(t, ctx, "sql.exportValue", StrV("x"), IntV(42))
	evalOp(t, ctx, "sql.exportCol", StrV("c"), intsBat(1, 2))
	if len(ctx.Results) != 2 || ctx.Results[0].Val.I != 42 {
		t.Fatalf("results = %+v", ctx.Results)
	}
	// exportCol of a non-bat errors.
	in := &Instr{Module: "sql", Op: "exportCol"}
	if _, err := Eval(ctx, in, []Value{StrV("c"), IntV(1)}); err == nil {
		t.Fatal("want error")
	}
}

// TestRegroupMatchesGroupNew rebuilds Groupings from their grouping
// BATs, as group.heads and the aggregates do, and compares NGroups and
// firstRows' Repr with what GroupNew and GroupDerive computed: over
// shuffled keys, over derived groupings, and over ids not numbered in
// first-occurrence order (a renumbered grouping), against a scan.
func TestRegroupMatchesGroupNew(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	check := func(ctxt string, g *algebra.Grouping) {
		t.Helper()
		r := regroup(g.Grp)
		if r.NGroups != g.NGroups {
			t.Fatalf("%s: NGroups %d, want %d", ctxt, r.NGroups, g.NGroups)
		}
		if got := firstRows(g.Grp.Tail.(*bat.Oids).V, r.NGroups); !slices.Equal(got, g.Repr) {
			t.Fatalf("%s: Repr %v, want %v", ctxt, got, g.Repr)
		}
	}
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(200)
		keys, more := make([]int64, n), make([]int64, n)
		for i := range keys {
			keys[i] = int64(rng.Intn(1 + n/4))
			more[i] = int64(rng.Intn(3))
		}
		rng.Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		g := algebra.GroupNew(bat.NewDenseHead(bat.NewInts(keys)))
		check(fmt.Sprintf("trial %d new", trial), g)
		d := algebra.GroupDerive(g, bat.NewDenseHead(bat.NewInts(more)))
		check(fmt.Sprintf("trial %d derived", trial), d)

		// Renumber the groups at random: ids stay dense, first rows
		// no longer ascend with the id.
		perm := rng.Perm(max(d.NGroups, 1))
		ids := make([]bat.Oid, n)
		want := make([]int, d.NGroups)
		for i, id := range d.Grp.Tail.(*bat.Oids).V {
			ids[i] = bat.Oid(perm[id])
		}
		for id, p := range d.Repr {
			want[perm[id]] = p
		}
		check(fmt.Sprintf("trial %d renumbered", trial), &algebra.Grouping{
			Grp: bat.New(d.Grp.Head, bat.NewOids(ids)), NGroups: d.NGroups, Repr: want,
		})
	}
}
