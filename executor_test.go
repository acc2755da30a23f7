package repro

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/mal"
	"repro/internal/recycler"
	"repro/internal/sky"
	"repro/internal/tpch"
	"repro/internal/trace"
)

// executorCase is one compiled template and the parameter instances it
// runs with, in order, against its catalog.
type executorCase struct {
	name   string
	cat    *catalog.Catalog
	tmpl   *mal.Template
	params [][]mal.Value
}

// executorCases returns the differential inputs: the 22 TPC-H
// templates at SF 0.005 (each with a repeated instance, so exact hits
// occur) and the sky templates — nearby-object, documentation and
// point lookups from the sampled log mix, plus the §8.3 micro
// benchmark whose seed queries need combined subsumption.
func executorCases() []executorCase {
	tp := tpch.Generate(0.005, 7)
	rng := rand.New(rand.NewSource(11))
	var cases []executorCase
	for _, q := range tpch.Queries() {
		first := q.Params(rng)
		cases = append(cases, executorCase{
			name: q.Name, cat: tp.Cat, tmpl: q.Templ,
			params: [][]mal.Value{first, q.Params(rng), first, q.Params(rng)},
		})
	}
	db := sky.Generate(2000, 3)
	w := sky.SampleWorkload(db, 40, 5)
	for _, kind := range []string{"nearby", "docs", "point"} {
		c := executorCase{name: "sky-" + kind, cat: db.Cat, tmpl: w.Template(kind)}
		for _, q := range w.Batch {
			if q.Kind == kind {
				c.params = append(c.params, q.Params)
			}
		}
		if kind == "point" { // ~2% of the mix: add instances of our own
			for _, id := range []int64{7, 42, 7} {
				c.params = append(c.params, []mal.Value{mal.IntV(0x0559000000000000 + id)})
			}
		}
		cases = append(cases, c)
	}
	mb := sky.GenMicroBench(3, 2, 0.02, 9)
	cases = append(cases, executorCase{name: "sky-micro", cat: db.Cat, tmpl: mb.Templ, params: mb.Queries})
	return cases
}

// pinnedCounts holds, per case, the Marked/Hits/LocalHits/GlobalHits/
// Subsumed counts of each instance under a keepall + subsume recycler:
// the values program-order execution produces.
var pinnedCounts = map[string]string{
	"q01":        "22/0/0/0/0 22/6/0/12/6 22/22/0/22/0 22/6/0/12/6",
	"q02":        "20/0/0/0/0 20/8/0/8/0 20/20/0/20/0 20/12/0/12/0",
	"q03":        "19/3/0/3/0 19/7/0/7/0 19/19/0/19/0 19/10/0/10/0",
	"q04":        "15/2/0/2/0 15/10/0/10/0 15/15/0/15/0 15/10/0/10/0",
	"q05":        "25/8/0/8/0 25/13/0/13/0 25/25/0/25/0 25/16/0/16/0",
	"q06":        "13/4/0/6/2 13/6/0/6/0 13/13/0/13/0 13/4/0/6/2",
	"q07":        "35/8/0/9/1 35/11/0/11/0 35/35/0/35/0 35/11/0/11/0",
	"q08":        "28/10/0/10/0 28/10/0/10/0 28/28/0/28/0 28/12/0/12/0",
	"q09":        "18/6/0/6/0 18/7/0/7/0 18/18/0/18/0 18/7/0/7/0",
	"q10":        "18/6/0/6/0 18/8/0/9/1 18/18/0/18/0 18/8/0/8/0",
	"q11":        "19/4/0/4/0 19/6/0/6/0 19/19/0/19/0 19/6/0/6/0",
	"q12":        "21/7/0/7/0 21/11/0/11/0 21/21/0/21/0 21/11/0/11/0",
	"q13":        "8/0/0/0/0 8/2/0/2/0 8/8/0/8/0 8/2/0/2/0",
	"q14":        "16/5/0/8/3 16/5/0/8/3 16/16/0/16/0 16/5/0/8/3",
	"q15":        "14/3/0/6/3 14/4/0/7/3 14/14/0/14/0 14/4/0/7/3",
	"q16":        "24/4/0/4/0 24/8/0/8/0 24/24/0/24/0 24/8/0/8/0",
	"q17":        "15/4/0/4/0 15/5/0/5/0 15/15/0/15/0 15/5/0/5/0",
	"q18":        "15/2/0/2/0 15/11/0/11/0 15/15/0/15/0 15/11/0/11/0",
	"q19":        "42/11/4/7/0 42/13/0/13/0 42/42/0/42/0 42/16/0/16/0",
	"q20":        "12/4/0/4/0 12/4/0/4/0 12/12/0/12/0 12/4/0/4/0",
	"q21":        "24/10/0/10/0 24/12/0/12/0 24/24/0/24/0 24/14/0/14/0",
	"q22":        "15/1/0/1/0 15/7/0/7/0 15/15/0/15/0 15/8/0/8/0",
	"sky-nearby": "68/0/0/0/0 68/23/0/23/0 68/68/0/68/0 68/68/0/68/0 68/68/0/68/0 68/68/0/68/0 68/68/0/68/0 68/68/0/68/0 68/68/0/68/0 68/68/0/68/0 68/68/0/68/0 68/68/0/68/0 68/68/0/68/0 68/68/0/68/0 68/68/0/68/0 68/68/0/68/0 68/68/0/68/0 68/68/0/68/0 68/68/0/68/0 68/68/0/68/0 68/68/0/68/0 68/68/0/68/0 68/68/0/68/0 68/68/0/68/0 68/68/0/68/0 68/68/0/68/0",
	"sky-docs":   "4/0/0/0/0 4/2/0/2/0 4/2/0/2/0 4/2/0/2/0 4/2/0/2/0 4/2/0/2/0 4/2/0/2/0 4/2/0/2/0 4/2/0/2/0 4/4/0/4/0 4/4/0/4/0 4/2/0/2/0 4/4/0/4/0 4/2/0/2/0",
	"sky-point":  "4/0/0/0/0 4/2/0/2/0 4/4/0/4/0",
	"sky-micro":  "3/1/0/1/0 3/1/0/1/0 3/1/0/1/0 3/2/0/4/0 3/1/0/1/0 3/1/0/1/0 3/1/0/1/0 3/2/0/4/0",
}

// TestExecutorDifferential runs every case under recycler {off,
// keepall + subsume} × tracer {off, on} on default engines: results
// must equal a no-recycler engine's, and recycled runs' per-query
// recycler counts must equal the pinned program-order values.
func TestExecutorDifferential(t *testing.T) {
	cases := executorCases()
	want := make([][][]mal.Result, len(cases))
	base := map[*catalog.Catalog]*Engine{}
	for i, c := range cases {
		eng := base[c.cat]
		if eng == nil {
			eng = NewEngine(c.cat)
			base[c.cat] = eng
		}
		for _, p := range c.params {
			res, err := eng.Exec(c.tmpl, p...)
			if err != nil {
				t.Fatalf("%s baseline: %v", c.name, err)
			}
			want[i] = append(want[i], res.Results)
		}
	}
	for _, recycle := range []bool{false, true} {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("recycle=%v/trace=%v", recycle, traced), func(t *testing.T) {
				engines := map[*catalog.Catalog]*Engine{}
				for i, c := range cases {
					eng := engines[c.cat]
					if eng == nil {
						var opts []Option
						if recycle {
							opts = append(opts, WithRecycler(recycler.Config{
								Admission: recycler.KeepAll, Subsumption: true, CombinedSubsumption: true,
							}))
						}
						if traced {
							opts = append(opts, WithTracer(trace.New(trace.Config{})))
						}
						eng = NewEngine(c.cat, opts...)
						engines[c.cat] = eng
					}
					var counts []string
					for j, p := range c.params {
						res, err := eng.Exec(c.tmpl, p...)
						if err != nil {
							t.Fatalf("%s #%d: %v", c.name, j, err)
						}
						if msg := diffResults(want[i][j], res.Results); msg != "" {
							t.Fatalf("%s #%d: %s", c.name, j, msg)
						}
						s := res.Stats
						counts = append(counts, fmt.Sprintf("%d/%d/%d/%d/%d", s.Marked, s.Hits, s.LocalHits, s.GlobalHits, s.Subsumed))
					}
					if !recycle {
						continue
					}
					got := strings.Join(counts, " ")
					if pin, ok := pinnedCounts[c.name]; !ok || got != pin {
						t.Errorf("%s counts %q, pinned %q", c.name, got, pin)
					}
				}
			})
		}
	}
}

// TestRunsInProgramOrder wraps every op of TPC-H Q21, a wide plan, in
// a stub that records the pc it executes, and runs instances through a
// default engine: each must execute pc 0, 1, …, n−1 in turn.
func TestRunsInProgramOrder(t *testing.T) {
	db := tpch.Generate(0.005, 7)
	q := tpch.QueryMap()[21]
	var (
		mu    sync.Mutex // a kernel run off the calling goroutine must not race the record
		order []int
	)
	wrapped := map[string]bool{}
	for i := range q.Templ.Instrs {
		name := q.Templ.Instrs[i].Name()
		if wrapped[name] {
			continue
		}
		wrapped[name] = true
		real := mal.LookupOp(name)
		if real == nil {
			t.Fatalf("no op %s", name)
		}
		mal.RegisterOp(name, func(ctx *mal.Ctx, in *mal.Instr, args []mal.Value) (mal.Value, error) {
			for pc := range ctx.Template.Instrs {
				if &ctx.Template.Instrs[pc] == in {
					mu.Lock()
					order = append(order, pc)
					mu.Unlock()
				}
			}
			return real(ctx, in, args)
		})
		t.Cleanup(func() { mal.RegisterOp(name, real) })
	}
	eng := NewEngine(db.Cat)
	rng := rand.New(rand.NewSource(5))
	for inst := 0; inst < 4; inst++ {
		order = order[:0]
		if _, err := eng.Exec(q.Templ, q.Params(rng)...); err != nil {
			t.Fatal(err)
		}
		for i, pc := range order {
			if pc != i {
				t.Fatalf("instance %d ran pc %d as its instruction #%d: order %v", inst, pc, i, order)
			}
		}
		if len(order) != len(q.Templ.Instrs) {
			t.Fatalf("instance %d ran %d of %d instructions", inst, len(order), len(q.Templ.Instrs))
		}
	}
}

// diffResults describes the first difference between two result sets,
// "" when they are equal (NaN equals NaN: it is the float nil).
func diffResults(want, got []mal.Result) string {
	if len(want) != len(got) {
		return fmt.Sprintf("%d results, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Name != g.Name || w.Val.Kind != g.Val.Kind {
			return fmt.Sprintf("result %d is %s %v, want %s %v", i, g.Name, g.Val.Kind, w.Name, w.Val.Kind)
		}
		if w.Val.Kind != mal.VBat {
			if !sameScalar(w.Val.Scalar(), g.Val.Scalar()) {
				return fmt.Sprintf("%s = %v, want %v", w.Name, g.Val, w.Val)
			}
			continue
		}
		wb, gb := w.Val.Bat, g.Val.Bat
		if wb.Len() != gb.Len() {
			return fmt.Sprintf("%s has %d rows, want %d", w.Name, gb.Len(), wb.Len())
		}
		for r := 0; r < wb.Len(); r++ {
			if !sameScalar(wb.Tail.Get(r), gb.Tail.Get(r)) || !sameScalar(wb.Head.Get(r), gb.Head.Get(r)) {
				return fmt.Sprintf("%s row %d differs", w.Name, r)
			}
		}
	}
	return ""
}

func sameScalar(a, b any) bool {
	if fa, ok := a.(float64); ok {
		fb, ok := b.(float64)
		return ok && (fa == fb || math.IsNaN(fa) && math.IsNaN(fb))
	}
	return a == b
}
