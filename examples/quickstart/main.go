// Quickstart: build a tiny catalog, compile a parametrised query
// template, and watch the recycler turn repeated (and overlapping)
// queries into pool hits.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"

	"repro"
	"repro/internal/bat"
	"repro/internal/catalog"
	"repro/internal/mal"
	"repro/internal/recycler"
)

func main() {
	// 1. Create a catalog with one table of measurements.
	cat := repro.NewCatalog()
	tb := cat.CreateTable("demo", "readings", []catalog.ColDef{
		{Name: "sensor", Kind: bat.KInt},
		{Name: "value", Kind: bat.KFloat},
	})
	sensors, values := make([]int64, 10000), make([]float64, 10000)
	for i := range sensors {
		sensors[i] = int64(i % 100)
		values[i] = float64(i%1000) / 10
	}
	if _, err := tb.AppendColumns([]bat.Vector{bat.NewInts(sensors), bat.NewFloats(values)}); err != nil {
		panic(err)
	}

	// 2. Build a query template: average reading of sensors in a
	// range. The literal bounds are template parameters, exactly as
	// the paper's SQL front end factors constants out of queries.
	b := mal.NewBuilder("avg_readings")
	lo := b.Param("A0", mal.VInt)
	hi := b.Param("A1", mal.VInt)
	sensor := b.Op1("sql", "bind", mal.C(mal.StrV("demo")), mal.C(mal.StrV("readings")), mal.C(mal.StrV("sensor")), mal.C(mal.IntV(0)))
	sel := b.Op1("algebra", "select", sensor, lo, hi, mal.C(mal.BoolV(true)), mal.C(mal.BoolV(true)))
	value := b.Op1("sql", "bind", mal.C(mal.StrV("demo")), mal.C(mal.StrV("readings")), mal.C(mal.StrV("value")), mal.C(mal.IntV(0)))
	vals := b.Op1("algebra", "semijoin", value, sel)
	avg := b.Op1("aggr", "avgFlt", vals)
	b.Do("sql", "exportValue", mal.C(mal.StrV("avg")), avg)

	// 3. Create an engine with the recycler enabled and compile the
	// template (the optimizer marks recyclable instructions).
	eng := repro.NewEngine(cat, repro.WithRecycler(recycler.Config{
		Admission:   recycler.KeepAll,
		Subsumption: true,
	}))
	tmpl := eng.Compile(b.Freeze())

	run := func(lo, hi int64) {
		res, err := eng.Exec(tmpl, mal.IntV(lo), mal.IntV(hi))
		if err != nil {
			panic(err)
		}
		fmt.Printf("avg(sensor in [%2d,%2d]) = %6.2f   hits=%d/%d subsumed=%d elapsed=%v\n",
			lo, hi, res.Results[0].Val.F,
			res.Stats.HitsNonBind, res.Stats.MarkedNonBind, res.Stats.Subsumed,
			res.Stats.Elapsed.Round(1000))
	}

	fmt.Println("first execution computes everything:")
	run(10, 60)
	fmt.Println("\nexact repetition is answered from the recycle pool:")
	run(10, 60)
	fmt.Println("\na narrower range subsumes from the cached selection:")
	run(20, 40)

	fmt.Println("\nrecycle pool content:")
	fmt.Print(eng.Recycler().DumpPool())
}
