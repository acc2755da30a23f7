// Command sqlshell is an interactive shell over the engine: SQL
// queries (the sqlfe subset) run against a generated TPC-H or
// SkyServer database with the recycler enabled, printing results
// together with the pool statistics after every statement — a live
// view of the paper's mechanism.
//
// INSERT INTO ... VALUES and DELETE FROM ... WHERE col = literal
// commit through the same engine, so the next query shows the
// recycler's update synchronisation (§6).
//
// Usage:
//
//	sqlshell -db tpch -sf 0.01
//	sqlshell -db sky -objects 50000
//
// Shell commands: \pool dumps the recycle pool, \reset empties it,
// \q quits. EXPLAIN ANALYZE <sql> executes the query and renders the
// per-instruction trace (timings, rows, recycler decision reasons)
// instead of the result rows. Everything else is parsed as SQL.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro"
	"repro/internal/catalog"
	"repro/internal/mal"
	"repro/internal/recycler"
	"repro/internal/sky"
	"repro/internal/tpch"
	"repro/internal/trace"
)

func main() {
	db := flag.String("db", "tpch", "database to generate: tpch or sky")
	sf := flag.Float64("sf", 0.01, "TPC-H scale factor")
	objects := flag.Int("objects", 50000, "sky object count")
	noRecycle := flag.Bool("norecycle", false, "disable the recycler")
	flag.Parse()

	var cat *catalog.Catalog
	switch *db {
	case "tpch":
		d := tpch.Generate(*sf, 7)
		cat = d.Cat
		fmt.Printf("TPC-H SF %.3f: %d orders, %d lineitems\n", *sf, d.Orders, d.Lineitems)
	case "sky":
		d := sky.Generate(*objects, 17)
		cat = d.Cat
		fmt.Printf("SkyServer: %d objects\n", d.Objects)
	default:
		fmt.Fprintf(os.Stderr, "unknown db %q\n", *db)
		os.Exit(2)
	}

	opts := []repro.Option{repro.WithTracer(trace.New(trace.Config{}))}
	if !*noRecycle {
		opts = append(opts, repro.WithRecycler(recycler.Config{
			Admission: recycler.KeepAll, Subsumption: true, CombinedSubsumption: true,
		}))
		fmt.Println("recycler: keepall, subsumption on (\\pool to inspect, \\q to quit)")
	}
	eng := repro.NewEngine(cat, opts...)
	rec := eng.Recycler()

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	fmt.Print("sql> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
		case line == `\q` || line == "quit" || line == "exit":
			return
		case line == `\pool`:
			if rec != nil {
				fmt.Print(rec.DumpPool())
			} else {
				fmt.Println("recycler disabled")
			}
		case line == `\stats`:
			if rec != nil {
				s := rec.Snapshot()
				fmt.Printf("pool: %d entries / %d KB (%d reused / %d KB reused)\n",
					s.Entries, s.Bytes/1024, s.ReusedEntries, s.ReusedBytes/1024)
				fmt.Printf("lifetime: %d admitted, %d evicted, %d invalidated\n",
					s.Admitted, s.Evicted, s.Invalidated)
			}
		case line == `\reset`:
			if rec != nil {
				rec.Reset()
				fmt.Println("pool cleared")
			}
		default:
			if rest, ok := stripExplainAnalyze(line); ok {
				explainAnalyze(eng, rest)
			} else {
				runSQL(eng, line)
			}
		}
		fmt.Print("sql> ")
	}
}

// stripExplainAnalyze detects a leading "EXPLAIN ANALYZE" (any case)
// and returns the statement after it.
func stripExplainAnalyze(line string) (string, bool) {
	fields := strings.Fields(line)
	if len(fields) < 3 ||
		!strings.EqualFold(fields[0], "explain") || !strings.EqualFold(fields[1], "analyze") {
		return line, false
	}
	return strings.Join(fields[2:], " "), true
}

// explainAnalyze executes the statement traced and renders the span
// table (front-end stages included) instead of the result rows.
func explainAnalyze(eng *repro.Engine, src string) {
	res, qt, err := eng.ExecSQLTraced(src)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	if res.Op != "" {
		fmt.Printf("-- %s %d rows (writes are not traced)\n", res.Op, res.RowsAffected)
		return
	}
	qt.Format(os.Stdout)
	for _, r := range res.Results {
		if r.Val.Kind == mal.VBat {
			fmt.Printf("-- result %s: %d tuples\n", r.Name, r.Val.Bat.Len())
		} else {
			fmt.Printf("-- result %s = %s\n", r.Name, r.Val.String())
		}
	}
}

func runSQL(eng *repro.Engine, src string) {
	res, err := eng.ExecSQL(src)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	if res.Op != "" {
		fmt.Printf("-- %s %d rows\n", res.Op, res.RowsAffected)
		return
	}
	for _, r := range res.Results {
		if r.Val.Kind == mal.VBat {
			fmt.Printf("%s = %s\n", r.Name, r.Val.Bat.Dump(10))
		} else {
			fmt.Printf("%s = %s\n", r.Name, r.Val.String())
		}
	}
	elapsed := res.Stats.Elapsed.Round(time.Microsecond)
	if rec := eng.Recycler(); rec != nil {
		fmt.Printf("-- %v, hits %d/%d, subsumed %d, pool %d entries / %d KB\n",
			elapsed, res.Stats.HitsNonBind, res.Stats.MarkedNonBind, res.Stats.Subsumed,
			rec.PoolLen(), rec.PoolBytes()/1024)
	} else {
		fmt.Printf("-- %v\n", elapsed)
	}
}
