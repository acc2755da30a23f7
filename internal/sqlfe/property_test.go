package sqlfe

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/bat"
	"repro/internal/catalog"
	"repro/internal/mal"
	"repro/internal/opt"
	"repro/internal/recycler"
)

// Property harness: random conjunctive COUNT(*) queries over a random
// int table, compiled through the front end and executed both with and
// without the recycler, checked against a direct Go evaluation.

type propTable struct {
	cat  *catalog.Catalog
	a, b []int64
}

func genPropTable(rng *rand.Rand) *propTable {
	cat := catalog.New()
	tb := cat.CreateTable("sys", "t", []catalog.ColDef{
		{Name: "a", Kind: bat.KInt},
		{Name: "b", Kind: bat.KInt},
	})
	n := rng.Intn(200) + 1
	pt := &propTable{cat: cat}
	rows := make([]catalog.Row, n)
	for i := range rows {
		av, bv := int64(rng.Intn(50)), int64(rng.Intn(50))
		rows[i] = catalog.Row{"a": av, "b": bv}
		pt.a = append(pt.a, av)
		pt.b = append(pt.b, bv)
	}
	tb.Append(rows)
	return pt
}

type propPred struct {
	col string // "a" or "b"
	op  string // "<", "<=", ">", ">=", "=", "BETWEEN"
	v1  int64
	v2  int64
}

func (p propPred) sql() string {
	if p.op == "BETWEEN" {
		return fmt.Sprintf("%s BETWEEN %d AND %d", p.col, p.v1, p.v2)
	}
	return fmt.Sprintf("%s %s %d", p.col, p.op, p.v1)
}

func (p propPred) eval(a, b int64) bool {
	v := a
	if p.col == "b" {
		v = b
	}
	switch p.op {
	case "<":
		return v < p.v1
	case "<=":
		return v <= p.v1
	case ">":
		return v > p.v1
	case ">=":
		return v >= p.v1
	case "=":
		return v == p.v1
	case "BETWEEN":
		return v >= p.v1 && v <= p.v2
	}
	panic("bad op")
}

func genPred(rng *rand.Rand) propPred {
	ops := []string{"<", "<=", ">", ">=", "=", "BETWEEN"}
	p := propPred{
		col: []string{"a", "b"}[rng.Intn(2)],
		op:  ops[rng.Intn(len(ops))],
		v1:  int64(rng.Intn(50)),
	}
	if p.op == "BETWEEN" {
		p.v2 = p.v1 + int64(rng.Intn(20))
	}
	return p
}

// TestRandomQueriesMatchReference is the front end's master property:
// for random tables and random conjunctive predicates, the compiled
// plan (with recycling and subsumption enabled) counts exactly what a
// direct evaluation counts.
func TestRandomQueriesMatchReference(t *testing.T) {
	fn := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pt := genPropTable(rng)
		fe := NewFrontend(pt.cat)
		rec := recycler.New(pt.cat, recycler.Config{
			Admission: recycler.KeepAll, Subsumption: true, CombinedSubsumption: true,
		})
		for q := 0; q < 8; q++ {
			nPreds := rng.Intn(3) + 1
			preds := make([]propPred, nPreds)
			sql := "SELECT COUNT(*) FROM sys.t WHERE "
			for i := range preds {
				preds[i] = genPred(rng)
				if i > 0 {
					sql += " AND "
				}
				sql += preds[i].sql()
			}
			tmpl, params, err := fe.Compile(sql)
			if err != nil {
				return false
			}
			qid := uint64(q + 1)
			rec.BeginQuery(qid, tmpl.ID)
			ctx := &mal.Ctx{Cat: pt.cat, Hook: rec, QueryID: qid}
			err = mal.Run(ctx, tmpl, params...)
			rec.EndQuery(qid)
			if err != nil {
				return false
			}
			var want int64
			for i := range pt.a {
				ok := true
				for _, p := range preds {
					if !p.eval(pt.a[i], pt.b[i]) {
						ok = false
						break
					}
				}
				if ok {
					want++
				}
			}
			if ctx.Results[0].Val.I != want {
				t.Logf("seed %d query %q: got %d want %d", seed, sql, ctx.Results[0].Val.I, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// rawCompile compiles src with EVERY optimizer pass disabled and no
// query normalization — the plan exactly as the compiler emits it.
func rawCompile(cat *catalog.Catalog, src string) (*mal.Template, []mal.Value, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, nil, err
	}
	return CompileOpt(cat, q, opt.Options{
		SkipConstFold: true, SkipDeadCode: true, SkipCommute: true,
		SkipCSE: true, SkipNormalizeSQL: true,
	})
}

// execResults runs a template and returns its exported results.
func execResults(cat *catalog.Catalog, hook mal.RecyclerHook, qid uint64, tmpl *mal.Template, params []mal.Value) ([]mal.Result, error) {
	ctx := &mal.Ctx{Cat: cat, Hook: hook, QueryID: qid}
	if err := mal.Run(ctx, tmpl, params...); err != nil {
		return nil, err
	}
	return ctx.Results, nil
}

// resultsBitIdentical compares two result sets exactly: same columns,
// same scalar bits, same BAT contents in the same order.
func resultsBitIdentical(a, b []mal.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name {
			return false
		}
		va, vb := a[i].Val, b[i].Val
		if va.Kind != vb.Kind {
			return false
		}
		if va.Kind != mal.VBat {
			if !va.EqualConst(vb) {
				return false
			}
			continue
		}
		if va.Bat.Len() != vb.Bat.Len() {
			return false
		}
		for j := 0; j < va.Bat.Len(); j++ {
			if va.Bat.Tail.Get(j) != vb.Bat.Tail.Get(j) {
				return false
			}
		}
	}
	return true
}

// genRichQuery samples a query exercising more of the surface than the
// COUNT(*) harness: plain projections (with ORDER BY/LIMIT),
// aggregates, or GROUP BY — always over a random conjunction, so the
// normalization passes (conjunct sort, range merge) and CSE (repeated
// binds/projections) all fire.
func genRichQuery(rng *rand.Rand) string {
	var sel, tail string
	switch rng.Intn(4) {
	case 0:
		sel = "COUNT(*)"
	case 1:
		sel = "a, b"
		if rng.Intn(2) == 0 {
			tail = " ORDER BY a"
			if rng.Intn(2) == 0 {
				tail += " DESC"
			}
		}
		if rng.Intn(2) == 0 {
			tail += fmt.Sprintf(" LIMIT %d", rng.Intn(20)+1)
		}
	case 2:
		sel = "SUM(a), MIN(b), COUNT(*)"
	default:
		sel = "a, COUNT(*)"
		tail = " GROUP BY a"
	}
	nPreds := rng.Intn(3) + 1
	where := ""
	for i := 0; i < nPreds; i++ {
		if i > 0 {
			where += " AND "
		}
		where += genPred(rng).sql()
	}
	return fmt.Sprintf("SELECT %s FROM sys.t WHERE %s%s", sel, where, tail)
}

// genLikeTable builds a random table with int columns a, b and a
// string column c, with nils mixed into all three.
func genLikeTable(rng *rand.Rand) *catalog.Catalog {
	cat := catalog.New()
	tb := cat.CreateTable("sys", "t", []catalog.ColDef{
		{Name: "a", Kind: bat.KInt},
		{Name: "b", Kind: bat.KInt},
		{Name: "c", Kind: bat.KStr},
	})
	n := rng.Intn(300) + 1
	words := []string{"alpha", "beta", "gamma", "delta", "alphabet", "betamax", "", bat.NilStr}
	num := func() int64 {
		if rng.Intn(12) == 0 {
			return bat.NilInt
		}
		return int64(rng.Intn(60))
	}
	rows := make([]catalog.Row, n)
	for i := range rows {
		rows[i] = catalog.Row{"a": num(), "b": num(), "c": words[rng.Intn(len(words))]}
	}
	tb.Append(rows)
	return cat
}

// genLikeQuery samples a conjunctive query mixing range, equality and
// LIKE predicates across columns: the conjunct chains the SQL front
// end emits as select → semijoin → select → … → uselect.
func genLikeQuery(rng *rand.Rand) string {
	var sel, tail string
	switch rng.Intn(3) {
	case 0:
		sel = "COUNT(*)"
	case 1:
		sel = "a, b"
		if rng.Intn(2) == 0 {
			tail = " ORDER BY a"
		}
	default:
		sel = "a, COUNT(*)"
		tail = " GROUP BY a"
	}
	nPreds := rng.Intn(3) + 1
	where := ""
	for i := 0; i < nPreds; i++ {
		if i > 0 {
			where += " AND "
		}
		switch rng.Intn(5) {
		case 0:
			where += fmt.Sprintf("c LIKE '%%%s%%'", []string{"alpha", "bet", "a", "x"}[rng.Intn(4)])
		case 1:
			where += fmt.Sprintf("c NOT LIKE '%%%s%%'", []string{"alpha", "mm"}[rng.Intn(2)])
		default:
			where += genPred(rng).sql()
		}
	}
	return fmt.Sprintf("SELECT %s FROM sys.t WHERE %s%s", sel, where, tail)
}

// optInputs are TestOptimizePreservesResults' input families: a random
// table and a query generator over it.
var optInputs = []struct {
	table func(*rand.Rand) *catalog.Catalog
	query func(*rand.Rand) string
}{
	{func(rng *rand.Rand) *catalog.Catalog { return genPropTable(rng).cat }, genRichQuery},
	{genLikeTable, genLikeQuery},
}

// TestOptimizePreservesResults is the optimizer's master property (the
// tentpole's safety net): for random queries, the fully-optimized,
// normalized template produces BIT-IDENTICAL results to the raw
// unoptimized plan — naive, and again with the recycler (and therefore
// CSE-shrunk plans feeding the pool) enabled.
func TestOptimizePreservesResults(t *testing.T) {
	fn := func(seed int64) bool {
		for _, in := range optInputs {
			if !optimizePreservesResults(t, seed, in.table, in.query) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func optimizePreservesResults(t *testing.T, seed int64, table func(*rand.Rand) *catalog.Catalog, query func(*rand.Rand) string) bool {
	rng := rand.New(rand.NewSource(seed))
	cat := table(rng)
	fe := NewFrontend(cat)
	rec := recycler.New(cat, recycler.Config{
		Admission: recycler.KeepAll, Subsumption: true, CombinedSubsumption: true,
	})
	defer rec.Close()
	for q := 0; q < 6; q++ {
		sql := query(rng)
		rawT, rawP, err := rawCompile(cat, sql)
		if err != nil {
			t.Logf("seed %d: raw compile %q: %v", seed, sql, err)
			return false
		}
		optT, optP, err := fe.Compile(sql)
		if err != nil {
			t.Logf("seed %d: opt compile %q: %v", seed, sql, err)
			return false
		}
		want, err := execResults(cat, nil, 0, rawT, rawP)
		if err != nil {
			t.Logf("seed %d: raw run %q: %v", seed, sql, err)
			return false
		}
		got, err := execResults(cat, nil, 0, optT, optP)
		if err != nil {
			t.Logf("seed %d: opt run %q: %v", seed, sql, err)
			return false
		}
		if !resultsBitIdentical(want, got) {
			t.Logf("seed %d: optimized results differ for %q", seed, sql)
			return false
		}
		qid := uint64(q + 1)
		rec.BeginQuery(qid, optT.ID)
		rgot, err := execResults(cat, rec, qid, optT, optP)
		rec.EndQuery(qid)
		if err != nil {
			t.Logf("seed %d: recycled run %q: %v", seed, sql, err)
			return false
		}
		if !resultsBitIdentical(want, rgot) {
			t.Logf("seed %d: recycled results differ for %q", seed, sql)
			return false
		}
	}
	return true
}

// TestConcurrentNaiveVsRecycled drives one set of cached templates from
// many goroutines — naive runs racing recycled runs of the same
// templates — so the race detector sees the naive
// reader paths against the recycler's pool mutation. Results are
// checked against a single-threaded naive run per query.
func TestConcurrentNaiveVsRecycled(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	cat := genLikeTable(rng)
	fe := NewFrontend(cat)
	rec := recycler.New(cat, recycler.Config{
		Admission: recycler.KeepAll, Subsumption: true,
	})
	defer rec.Close()

	type job struct {
		tmpl   *mal.Template
		params []mal.Value
		want   []mal.Result
	}
	var jobs []job
	for len(jobs) < 8 {
		sql := genLikeQuery(rng)
		tmpl, params, err := fe.Compile(sql)
		if err != nil {
			continue
		}
		want, err := execResults(cat, nil, 0, tmpl, params)
		if err != nil {
			t.Fatalf("reference run: %v", err)
		}
		jobs = append(jobs, job{tmpl, params, want})
	}

	var wg sync.WaitGroup
	var qid, failures atomic.Int64
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				j := jobs[(w+i)%len(jobs)]
				var got []mal.Result
				var err error
				if w%2 == 0 {
					ctx := &mal.Ctx{Cat: cat}
					err = mal.Run(ctx, j.tmpl, j.params...)
					got = ctx.Results
				} else {
					id := uint64(qid.Add(1))
					rec.BeginQuery(id, j.tmpl.ID)
					got, err = execResults(cat, rec, id, j.tmpl, j.params)
					rec.EndQuery(id)
				}
				if err != nil || !resultsBitIdentical(j.want, got) {
					failures.Add(1)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n := failures.Load(); n > 0 {
		t.Fatalf("%d workers saw divergent or failed results", n)
	}
}

// TestShuffledConjunctsProduceIdenticalResults: every permutation of a
// random conjunction compiles (via normalization) to the SAME template
// and bit-identical results.
func TestShuffledConjunctsProduceIdenticalResults(t *testing.T) {
	fn := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pt := genPropTable(rng)
		fe := NewFrontend(pt.cat)
		nPreds := rng.Intn(2) + 2
		preds := make([]propPred, nPreds)
		for i := range preds {
			preds[i] = genPred(rng)
		}
		mk := func(order []int) string {
			sql := "SELECT COUNT(*) FROM sys.t WHERE "
			for i, j := range order {
				if i > 0 {
					sql += " AND "
				}
				sql += preds[j].sql()
			}
			return sql
		}
		base := make([]int, nPreds)
		for i := range base {
			base[i] = i
		}
		t0, p0, err := fe.Compile(mk(base))
		if err != nil {
			return false
		}
		want, err := execResults(pt.cat, nil, 0, t0, p0)
		if err != nil {
			return false
		}
		for trial := 0; trial < 3; trial++ {
			order := rng.Perm(nPreds)
			tv, pv, err := fe.Compile(mk(order))
			if err != nil {
				return false
			}
			if tv != t0 {
				t.Logf("seed %d: permutation %v compiled a second template", seed, order)
				return false
			}
			got, err := execResults(pt.cat, nil, 0, tv, pv)
			if err != nil {
				return false
			}
			if !resultsBitIdentical(want, got) {
				t.Logf("seed %d: permutation %v changed results", seed, order)
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: query-cache hits never change results.
func TestCachedTemplateEquivalence(t *testing.T) {
	fn := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pt := genPropTable(rng)
		fe := NewFrontend(pt.cat)
		p := genPred(rng)
		// Two instances of the same shape with different constants.
		mk := func(shift int64) string {
			q := p
			q.v1 += shift
			if q.op == "BETWEEN" {
				q.v2 += shift
			}
			return "SELECT COUNT(*) FROM sys.t WHERE " + q.sql()
		}
		t1, p1, err := fe.Compile(mk(0))
		if err != nil {
			return false
		}
		t2, p2, err := fe.Compile(mk(3))
		if err != nil {
			return false
		}
		if t1 != t2 {
			return false // shape must be cached
		}
		// Execute the cached template with the second instance's
		// parameters and compare with a fresh frontend's compile.
		ctx := &mal.Ctx{Cat: pt.cat}
		if err := mal.Run(ctx, t2, p2...); err != nil {
			return false
		}
		fe2 := NewFrontend(pt.cat)
		t3, p3, err := fe2.Compile(mk(3))
		if err != nil {
			return false
		}
		ctx2 := &mal.Ctx{Cat: pt.cat}
		if err := mal.Run(ctx2, t3, p3...); err != nil {
			return false
		}
		_ = p1
		return ctx.Results[0].Val.I == ctx2.Results[0].Val.I
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
