// Updates demo: shows recycling in a volatile database (paper §6).
// The default mode invalidates affected intermediates immediately and
// column-wise; the propagation mode pushes insert deltas through
// cached selections instead, keeping them reusable.
//
// Run with: go run ./examples/updates
package main

import (
	"fmt"

	"repro"
	"repro/internal/bat"
	"repro/internal/catalog"
	"repro/internal/mal"
	"repro/internal/recycler"
)

func buildTemplate(eng *repro.Engine) *mal.Template {
	b := mal.NewBuilder("recent_total")
	cutoff := b.Param("A0", mal.VDate)
	d := b.Op1("sql", "bind", mal.C(mal.StrV("shop")), mal.C(mal.StrV("sales")), mal.C(mal.StrV("day")), mal.C(mal.IntV(0)))
	sel := b.Op1("algebra", "select", d, cutoff, mal.C(mal.VoidV()), mal.C(mal.BoolV(true)), mal.C(mal.BoolV(true)))
	amount := b.Op1("sql", "bind", mal.C(mal.StrV("shop")), mal.C(mal.StrV("sales")), mal.C(mal.StrV("amount")), mal.C(mal.IntV(0)))
	vals := b.Op1("algebra", "semijoin", amount, sel)
	total := b.Op1("aggr", "sumFlt", vals)
	b.Do("sql", "exportValue", mal.C(mal.StrV("total")), total)
	return eng.Compile(b.Freeze())
}

func load(cat *catalog.Catalog) *catalog.Table {
	tb := cat.CreateTable("shop", "sales", []catalog.ColDef{
		{Name: "day", Kind: bat.KDate},
		{Name: "amount", Kind: bat.KFloat},
	})
	day, amount := make([]bat.Date, 50000), make([]float64, 50000)
	for i := range day {
		day[i], amount[i] = bat.Date(10000+i%365), float64(i%97)+0.5
	}
	appendRows(tb, day, amount)
	return tb
}

// appendRows commits the rows given by their columns, day and amount.
func appendRows(tb *catalog.Table, day []bat.Date, amount []float64) {
	if _, err := tb.AppendColumns([]bat.Vector{bat.NewDates(day), bat.NewFloats(amount)}); err != nil {
		panic(err)
	}
}

func demo(mode recycler.SyncMode, label string) {
	fmt.Printf("=== %s ===\n", label)
	cat := repro.NewCatalog()
	tb := load(cat)
	eng := repro.NewEngine(cat, repro.WithRecycler(recycler.Config{
		Admission: recycler.KeepAll,
		Sync:      mode,
	}))
	tmpl := buildTemplate(eng)
	cutoff := mal.DateV(bat.Date(10200))

	exec := func(note string) {
		res, err := eng.Exec(tmpl, cutoff)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-28s total=%10.1f hits=%d/%d pool=%d entries\n",
			note, res.Results[0].Val.F,
			res.Stats.HitsNonBind, res.Stats.MarkedNonBind,
			eng.Recycler().PoolLen())
	}

	exec("cold run:")
	exec("warm run:")
	appendRows(tb,
		[]bat.Date{10300, 10100}, // the second is below the cutoff
		[]float64{1000, 2000})
	fmt.Println("-- inserted 2 rows (one qualifies) --")
	exec("after insert:")
	exec("and again:")
	fmt.Println()
}

func main() {
	demo(recycler.SyncInvalidate, "immediate invalidation (the paper's implemented mode, §6.4)")
	demo(recycler.SyncPropagate, "delta propagation (§6.3 design-space extension)")
}
