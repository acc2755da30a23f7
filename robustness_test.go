package repro

import (
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

// TestPanickingKernelFailsOnlyItsQuery: a kernel panic becomes that
// query's error; the pins it held are released and the next query is
// served.
func TestPanickingKernelFailsOnlyItsQuery(t *testing.T) {
	// workers=1: the query runs on its calling goroutine, the one executor.
	t.Run("workers=1", func(t *testing.T) {
		installPanickingSelect(t)
		eng := NewEngine(demoCatalog(), WithRecycler(recycler.Config{Admission: recycler.KeepAll}))
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
