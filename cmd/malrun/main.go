// Command malrun parses a textual query-template file (the MAL-like
// plan format of mal.ParseTemplate, matching the paper's Fig. 1
// listings) and executes it against a generated database, optionally
// with the recycler enabled. It demonstrates the engine's plan
// tooling: templates are plain text, get optimizer-marked, and can be
// executed repeatedly with different parameters to observe recycling.
//
// Usage:
//
//	malrun -db tpch -sf 0.01 -params "1996-07-01,3" -repeat 2 plan.mal
//	malrun -db sky -objects 50000 -params "195,198" plan.mal
//
// Parameters are comma-separated literals matched against the
// template's declared parameter kinds.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/algebra"
	"repro/internal/bat"
	"repro/internal/catalog"
	"repro/internal/mal"
	"repro/internal/recycler"
	"repro/internal/sky"
	"repro/internal/tpch"
)

func main() {
	db := flag.String("db", "tpch", "database to generate: tpch or sky")
	sf := flag.Float64("sf", 0.01, "TPC-H scale factor")
	objects := flag.Int("objects", 50000, "sky object count")
	params := flag.String("params", "", "comma-separated parameter literals")
	repeat := flag.Int("repeat", 1, "number of executions (recycling shows from the second)")
	noRecycle := flag.Bool("norecycle", false, "disable the recycler")
	dumpPool := flag.Bool("dump", false, "dump the recycle pool after the runs")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: malrun [flags] <plan.mal>")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	parsed, err := mal.ParseTemplate(string(src))
	if err != nil {
		fatal(err)
	}

	var cat *catalog.Catalog
	switch *db {
	case "tpch":
		cat = tpch.Generate(*sf, 7).Cat
	case "sky":
		cat = sky.Generate(*objects, 17).Cat
	default:
		fatal(fmt.Errorf("unknown db %q", *db))
	}

	var opts []repro.Option
	if !*noRecycle {
		opts = append(opts, repro.WithRecycler(recycler.Config{
			Admission: recycler.KeepAll, Subsumption: true, CombinedSubsumption: true,
		}))
	}
	eng := repro.NewEngine(cat, opts...)
	tmpl := eng.Compile(parsed)
	fmt.Printf("parsed template %s (%d instructions, %d marked for recycling)\n",
		tmpl.Name, len(tmpl.Instrs), tmpl.MarkedCount(false))

	vals, err := parseParams(tmpl, *params)
	if err != nil {
		fatal(err)
	}
	for i := 1; i <= *repeat; i++ {
		res, err := eng.Exec(tmpl, vals...)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("run %d: %v (hits %d/%d, subsumed %d)\n", i,
			res.Stats.Elapsed.Round(time.Microsecond), res.Stats.Hits, res.Stats.Marked, res.Stats.Subsumed)
		for _, r := range res.Results {
			fmt.Printf("  %s = %s\n", r.Name, renderResult(r.Val))
		}
	}
	if rec := eng.Recycler(); rec != nil && *dumpPool {
		fmt.Println()
		fmt.Print(rec.DumpPool())
	}
}

func renderResult(v mal.Value) string {
	if v.Kind == mal.VBat {
		return v.Bat.Dump(8)
	}
	return v.String()
}

// parseParams converts the comma-separated literal list against the
// template's declared parameter kinds.
func parseParams(t *mal.Template, s string) ([]mal.Value, error) {
	var toks []string
	if strings.TrimSpace(s) != "" {
		toks = strings.Split(s, ",")
	}
	if len(toks) != len(t.Params) {
		return nil, fmt.Errorf("template %s needs %d parameters, got %d", t.Name, len(t.Params), len(toks))
	}
	out := make([]mal.Value, len(toks))
	for i, tok := range toks {
		tok = strings.TrimSpace(tok)
		p := t.Params[i]
		switch p.Kind {
		case mal.VInt:
			n, err := strconv.ParseInt(tok, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("param %s: %w", p.Name, err)
			}
			out[i] = mal.IntV(n)
		case mal.VFloat:
			f, err := strconv.ParseFloat(tok, 64)
			if err != nil {
				return nil, fmt.Errorf("param %s: %w", p.Name, err)
			}
			out[i] = mal.FloatV(f)
		case mal.VStr:
			out[i] = mal.StrV(tok)
		case mal.VDate:
			d, err := parseDate(tok)
			if err != nil {
				return nil, fmt.Errorf("param %s: %w", p.Name, err)
			}
			out[i] = mal.DateV(d)
		case mal.VBool:
			out[i] = mal.BoolV(tok == "true")
		default:
			return nil, fmt.Errorf("param %s: unsupported kind %v", p.Name, p.Kind)
		}
	}
	return out, nil
}

func parseDate(tok string) (bat.Date, error) {
	if len(tok) != 10 || tok[4] != '-' || tok[7] != '-' {
		return 0, fmt.Errorf("bad date %q (want YYYY-MM-DD)", tok)
	}
	y, _ := strconv.Atoi(tok[:4])
	m, _ := strconv.Atoi(tok[5:7])
	d, _ := strconv.Atoi(tok[8:])
	return algebra.MkDate(y, m, d), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "malrun:", err)
	os.Exit(1)
}
