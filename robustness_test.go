package repro

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/mal"
	"repro/internal/recycler"
	"repro/internal/sky"
)

// TestStringLiteralsWithSeparatorsDoNotCollide: a string literal
// containing the signature separator once made two different selects
// share a pool key ('dbobj_001,sdbobj_005' .. 'dbobj_009' and
// 'dbobj_001' .. 'dbobj_005,sdbobj_009'), so the second was served the
// first's rows. Both must answer what a no-recycler engine answers.
func TestStringLiteralsWithSeparatorsDoNotCollide(t *testing.T) {
	db := sky.Generate(2000, 1)
	naive := NewEngine(db.Cat)
	eng := NewEngine(db.Cat, WithRecycler(recycler.Config{
		Admission: recycler.KeepAll, Subsumption: true, CombinedSubsumption: true,
	}))
	for _, sql := range []string{
		"SELECT name FROM sky.dbobjects WHERE name BETWEEN 'dbobj_001,sdbobj_005' AND 'dbobj_009'",
		"SELECT name FROM sky.dbobjects WHERE name BETWEEN 'dbobj_001' AND 'dbobj_005,sdbobj_009'",
	} {
		want, err := naive.ExecSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.ExecSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		if msg := diffResults(want.Results, got.Results); msg != "" {
			t.Fatalf("%s: %s", sql, msg)
		}
	}
}

// panicMarker is the select upper bound installPanickingSelect's stub
// panics on; every other call runs the real kernel.
const panicMarker = 987654

func installPanickingSelect(t *testing.T) {
	t.Helper()
	real := mal.LookupOp("algebra.select")
	mal.RegisterOp("algebra.select", func(ctx *mal.Ctx, in *mal.Instr, args []mal.Value) (mal.Value, error) {
		if len(args) > 2 && args[2].Kind == mal.VInt && args[2].I == panicMarker {
			panic("injected kernel fault")
		}
		return real(ctx, in, args)
	})
	t.Cleanup(func() { mal.RegisterOp("algebra.select", real) })
}

// TestPanickingKernelFailsOnlyItsQuery: a kernel panic, whether it runs
// on the calling goroutine or on a helper, becomes that query's error;
// the pins it held are released and the next query is served.
func TestPanickingKernelFailsOnlyItsQuery(t *testing.T) {
	installPanickingSelect(t)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			eng := NewEngine(demoCatalog(), WithWorkers(workers), WithRecycler(recycler.Config{Admission: recycler.KeepAll}))
			tmpl := eng.Compile(demoTemplate())
			_, err := eng.Exec(tmpl, mal.IntV(0), mal.IntV(panicMarker))
			if err == nil || !strings.Contains(err.Error(), "algebra.select: panic: injected kernel fault") {
				t.Fatalf("want the panic as the query's error, got %v", err)
			}
			if n := eng.Recycler().ActiveQueries(); n != 0 {
				t.Fatalf("%d queries still active after the panic", n)
			}
			res, err := eng.Exec(tmpl, mal.IntV(0), mal.IntV(9))
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Results[0].Val.F; got != 22.5 { // (0+1+...+9)/2
				t.Fatalf("next query: sum = %v, want 22.5", got)
			}
		})
	}
}

// TestPanickingKernelOnHelper puts the fault on a helper: two
// independent selects are ready at once, so the first (the faulty one)
// is handed off while the calling goroutine probes the second.
func TestPanickingKernelOnHelper(t *testing.T) {
	installPanickingSelect(t)
	b := mal.NewBuilder("two_selects")
	hi := b.Param("A0", mal.VInt)
	k := b.Op1("sql", "bind", mal.C(mal.StrV("demo")), mal.C(mal.StrV("t")), mal.C(mal.StrV("k")), mal.C(mal.IntV(0)))
	s1 := b.Op1("algebra", "select", k, mal.C(mal.IntV(5)), mal.C(mal.IntV(panicMarker)), mal.C(mal.BoolV(true)), mal.C(mal.BoolV(true)))
	s2 := b.Op1("algebra", "select", k, mal.C(mal.IntV(0)), hi, mal.C(mal.BoolV(true)), mal.C(mal.BoolV(true)))
	b.Do("sql", "exportValue", mal.C(mal.StrV("a")), b.Op1("aggr", "count", s1))
	b.Do("sql", "exportValue", mal.C(mal.StrV("b")), b.Op1("aggr", "count", s2))
	eng := NewEngine(demoCatalog(), WithWorkers(4), WithRecycler(recycler.Config{Admission: recycler.KeepAll}))
	tmpl := eng.Compile(b.Freeze())
	for i := 0; i < 20; i++ {
		_, qt, err := eng.ExecTraced("", tmpl, mal.IntV(int64(100+i)))
		if err == nil || !strings.Contains(err.Error(), "panic: injected kernel fault") || qt != nil {
			t.Fatalf("query %d: want the panic as its error, got %v", i, err)
		}
	}
	if n := eng.Recycler().ActiveQueries(); n != 0 {
		t.Fatalf("%d queries still active", n)
	}
}
