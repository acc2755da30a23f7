// SkyServer demo: replays a synthetic sample of the SkyServer query
// log (dominated by overlapping fGetNearbyObjEq spatial searches)
// against the engine with and without the recycler, then prints the
// recycle pool breakdown — a small-scale rendition of the paper's
// Fig. 14 and Table III.
//
// Run with: go run ./examples/skyserver
package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/recycler"
	"repro/internal/sky"
)

func main() {
	fmt.Println("generating synthetic sky catalog (50k objects) ...")
	db := sky.Generate(50000, 17)
	w := sky.SampleWorkload(db, 100, 42)

	kinds := map[string]int{}
	for _, q := range w.Batch {
		kinds[q.Kind]++
	}
	fmt.Printf("batch mix: %d nearby-object, %d docs, %d point queries\n\n",
		kinds["nearby"], kinds["docs"], kinds["point"])

	naive := bench.NewNaive(db.Cat, false)
	tNaive := bench.Timed(func() {
		for _, q := range w.Batch {
			naive.MustRun(w.Template(q.Kind), q.Params...)
		}
	})

	rec := bench.NewRecycled(db.Cat, recycler.Config{
		Admission:   recycler.KeepAll,
		Subsumption: true,
	})
	var hits, pot int
	tRec := bench.Timed(func() {
		for _, q := range w.Batch {
			res := rec.MustRun(w.Template(q.Kind), q.Params...)
			hits += res.Stats.HitsNonBind
			pot += res.Stats.MarkedNonBind
		}
	})

	fmt.Printf("naive:    %v\n", tNaive.Round(time.Millisecond))
	fmt.Printf("recycler: %v  (%.1fx, %.1f%% of monitored instructions reused)\n\n",
		tRec.Round(time.Millisecond), float64(tNaive)/float64(tRec),
		100*float64(hits)/float64(pot))

	fmt.Println("recycle pool breakdown by instruction type (cf. Table III):")
	bench.PrintTable3(os.Stdout, rec.Recycler().PoolTypeBreakdown())
}
