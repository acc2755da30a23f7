// SQL front-end demo: queries arrive as text, the front end factors
// literals out into cached templates (paper §2.2), and the recycler
// reuses intermediates across instances — including subsumption when
// a later range is contained in an earlier one.
//
// Run with: go run ./examples/sql
package main

import (
	"fmt"
	"time"

	"repro"
	"repro/internal/mal"
	"repro/internal/recycler"
	"repro/internal/tpch"
)

func main() {
	fmt.Println("generating TPC-H data at SF 0.01 ...")
	db := tpch.Generate(0.01, 7)
	eng := repro.NewEngine(db.Cat, repro.WithRecycler(recycler.Config{
		Admission:           recycler.KeepAll,
		Subsumption:         true,
		CombinedSubsumption: true,
	}))

	queries := []string{
		"SELECT COUNT(*) FROM sys.lineitem WHERE l_quantity BETWEEN 10 AND 40",
		"SELECT COUNT(*) FROM sys.lineitem WHERE l_quantity BETWEEN 10 AND 40", // exact repeat
		"SELECT COUNT(*) FROM sys.lineitem WHERE l_quantity BETWEEN 15 AND 30", // subsumed
		"SELECT l_returnflag, COUNT(*) AS n, SUM(l_extendedprice) AS s FROM sys.lineitem WHERE l_quantity <= 25 GROUP BY l_returnflag",
		"SELECT l_returnflag, COUNT(*) AS n, SUM(l_extendedprice) AS s FROM sys.lineitem WHERE l_quantity <= 30 GROUP BY l_returnflag",
		"SELECT COUNT(*) FROM sys.orders WHERE o_orderdate >= DATE '1996-01-01' AND o_orderdate < DATE '1997-01-01'",
		"SELECT COUNT(*) FROM sys.orders WHERE o_orderdate >= DATE '1996-04-01' AND o_orderdate < DATE '1996-10-01'",
	}

	for _, src := range queries {
		res, err := eng.ExecSQL(src)
		if err != nil {
			panic(err)
		}
		fmt.Printf("\n%s\n", src)
		fmt.Printf("  -> %v  hits=%d/%d subsumed=%d combined=%d\n",
			res.Stats.Elapsed.Round(time.Microsecond),
			res.Stats.HitsNonBind, res.Stats.MarkedNonBind,
			res.Stats.Subsumed, res.Stats.Combined)
		for _, r := range res.Results {
			if r.Val.Kind == mal.VBat {
				fmt.Printf("  %s = %s\n", r.Name, r.Val.Bat.Dump(4))
			} else {
				fmt.Printf("  %s = %s\n", r.Name, r.Val.String())
			}
		}
	}

	st := eng.StatsSnapshot()
	fmt.Printf("\nquery cache: %d templates for %d queries (%d repeated texts, %d shape hits)\n",
		st.TemplateCache.Size, len(queries), st.Statements.Hits, st.TemplateCache.Hits)
	fmt.Printf("recycle pool: %d entries, %d KB\n", st.Recycler.Entries, st.Recycler.Bytes/1024)
}
