package repro

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/mal"
	"repro/internal/recycler"
	"repro/internal/sky"
	"repro/internal/trace"
)

// TestConcurrentTracedSessions drives many client goroutines through
// one traced engine and checks that per-query traces never interleave
// across sessions: every returned trace carries exactly the SQL the
// client submitted, one span per compiled instruction, a recycler
// decision on every monitored span, and a query id no other client
// saw. Run with -race to catch recorder sharing bugs the assertions
// can't see.
func TestConcurrentTracedSessions(t *testing.T) {
	eng := NewEngine(demoCatalog(),
		WithRecycler(recycler.Config{Admission: recycler.KeepAll, Subsumption: true}),
		WithTracer(trace.New(trace.Config{RingSize: 16})))

	const clients, perClient = 8, 25
	var (
		mu   sync.Mutex
		seen = map[uint64]int{} // query id -> client
	)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				lo := (c*perClient + i) % 900
				src := fmt.Sprintf(
					"SELECT COUNT(*) FROM demo.t WHERE k BETWEEN %d AND %d", lo, lo+50)
				res, qt, err := eng.ExecSQLTraced(src)
				if err != nil {
					errs <- err
					return
				}
				if got := res.Results[0].Val.I; got != 51 {
					errs <- fmt.Errorf("client %d: count = %d, want 51", c, got)
					return
				}
				if qt == nil {
					errs <- fmt.Errorf("client %d: no trace returned", c)
					return
				}
				if qt.SQL != src {
					errs <- fmt.Errorf("client %d: trace carries %q, submitted %q", c, qt.SQL, src)
					return
				}
				tmpl, _, err := eng.CompileSQL(src)
				if err != nil {
					errs <- err
					return
				}
				if len(qt.Spans) != len(tmpl.Instrs) {
					errs <- fmt.Errorf("client %d: %d spans for %d instructions",
						c, len(qt.Spans), len(tmpl.Instrs))
					return
				}
				monitored := 0
				for _, sp := range qt.Spans {
					if sp.Recycle != "" {
						monitored++
					}
				}
				if monitored == 0 {
					errs <- fmt.Errorf("client %d: no recycler decisions in trace", c)
					return
				}
				mu.Lock()
				if prev, dup := seen[qt.QueryID]; dup {
					mu.Unlock()
					errs <- fmt.Errorf("query id %d returned to clients %d and %d",
						qt.QueryID, prev, c)
					return
				}
				seen[qt.QueryID] = c
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if len(seen) != clients*perClient {
		t.Fatalf("collected %d distinct traces, want %d", len(seen), clients*perClient)
	}

	// The tracer saw every query, and its rings stayed bounded.
	tr := eng.Tracer()
	if q := tr.Queries(); q != clients*perClient {
		t.Fatalf("tracer counted %d queries, want %d", q, clients*perClient)
	}
	if r := tr.Recent(); len(r) > 16 {
		t.Fatalf("recent ring holds %d traces, cap 16", len(r))
	}
}

// TestNaiveAndRecycledRunIdenticalKernels: a naive engine and a cold
// recycled one execute the same instructions with the same
// cardinalities, pc by pc, on a conjunctive SkyServer box — the
// select → semijoin → select → … chain the SQL front end emits. The
// naive arm is the baseline of every recycled-vs-naive ratio, so it
// must run the recycler's per-instruction kernels and nothing else.
func TestNaiveAndRecycledRunIdenticalKernels(t *testing.T) {
	db := sky.Generate(2000, 17)
	run := func(opts ...Option) []trace.Span {
		eng := NewEngine(db.Cat, append(opts, WithTracer(trace.New(trace.Config{})))...)
		_, qt, err := eng.ExecSQLTraced(skyBoxCount)
		if err != nil {
			t.Fatal(err)
		}
		return qt.Spans
	}
	naive := run()
	recycled := run(WithRecycler(recycler.Config{Admission: recycler.KeepAll, Subsumption: true}))
	if len(naive) != len(recycled) {
		t.Fatalf("naive traced %d instructions, recycled %d", len(naive), len(recycled))
	}
	filters := 0
	for pc, n := range naive {
		r := recycled[pc]
		if n.Op != r.Op || n.RowsOut != r.RowsOut {
			t.Errorf("pc %d: naive %s → %d rows, recycled %s → %d rows", pc, n.Op, n.RowsOut, r.Op, r.RowsOut)
		}
		if mal.IsFilter(n.Op) {
			filters++
		}
	}
	if filters < 2 {
		t.Fatalf("the plan has %d filters, not a conjunct chain", filters)
	}
}

// BenchmarkTracingOverhead pins the cost of the nil-recorder fast
// path: the same warm-pool hit query with no tracer attached ("off")
// and with the full recorder + histograms attached ("on"). The "off"
// variant is the one the 2% acceptance bound applies to — it must
// stay indistinguishable from a build without internal/trace.
func BenchmarkTracingOverhead(b *testing.B) {
	run := func(b *testing.B, eng *Engine) {
		tmpl, params, err := eng.CompileSQL(
			"SELECT COUNT(*) FROM demo.t WHERE k BETWEEN 10 AND 60")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Exec(tmpl, params...); err != nil { // warm the pool
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Exec(tmpl, params...); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) {
		run(b, NewEngine(demoCatalog(),
			WithRecycler(recycler.Config{Admission: recycler.KeepAll})))
	})
	b.Run("on", func(b *testing.B) {
		run(b, NewEngine(demoCatalog(),
			WithRecycler(recycler.Config{Admission: recycler.KeepAll}),
			WithTracer(trace.New(trace.Config{}))))
	})
}
