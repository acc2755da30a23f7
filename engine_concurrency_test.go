package repro

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/recycler"
)

// TestConcurrentExecSQL drives many client goroutines against one
// engine sharing a recycler pool: the paper's multi-user setting. Every
// query's result is independently checkable (COUNT over a dense key
// range), so any cross-session corruption of the pool, the template
// cache or the catalog shows up as a wrong count; run with -race to
// catch the rest.
func TestConcurrentExecSQL(t *testing.T) {
	eng := NewEngine(demoCatalog(), WithRecycler(recycler.Config{
		Admission:   recycler.KeepAll,
		Subsumption: true,
	}))

	const clients, perClient = 8, 30
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			s := eng.NewSession()
			for i := 0; i < perClient; i++ {
				lo := (c*perClient + i) % 900
				hi := lo + 50
				res, err := s.ExecSQL(fmt.Sprintf(
					"SELECT COUNT(*) FROM demo.t WHERE k BETWEEN %d AND %d", lo, hi))
				if err != nil {
					errs <- err
					return
				}
				if got := res.Results[0].Val.I; got != 51 {
					errs <- fmt.Errorf("client %d query %d: count = %d, want 51", c, i, got)
					return
				}
			}
			if st := s.Stats(); st.Queries != perClient {
				errs <- fmt.Errorf("client %d session stats: %d queries, want %d", c, st.Queries, perClient)
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if eng.Recycler().Pool().Len() == 0 {
		t.Fatal("shared pool empty after concurrent workload")
	}
	snap := eng.Recycler().Snapshot()
	if snap.Admitted == 0 {
		t.Fatalf("no admissions recorded: %+v", snap)
	}
}

// TestConcurrentQueriesAndDML mixes readers with a writer appending to
// the queried table. Readers count a key range that the appends never
// touch, so every result must equal the pre-existing row count
// regardless of interleaving; the recycler's invalidation listener
// fires concurrently with the reads.
func TestConcurrentQueriesAndDML(t *testing.T) {
	cat := demoCatalog()
	eng := NewEngine(cat, WithRecycler(recycler.Config{
		Admission: recycler.KeepAll,
	}))
	tb := cat.MustTable("demo", "t")

	const readers, reads = 4, 40
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			rows := []catalog.Row{{"k": int64(10000 + i), "v": float64(i)}}
			tb.Append(rows)
		}
	}()
	for rdr := 0; rdr < readers; rdr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				res, err := eng.ExecSQL("SELECT COUNT(*) FROM demo.t WHERE k BETWEEN 0 AND 999")
				if err != nil {
					errs <- err
					return
				}
				if got := res.Results[0].Val.I; got != 1000 {
					errs <- fmt.Errorf("read %d: count = %d, want 1000", i, got)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if tb.NumRows() != 1020 {
		t.Fatalf("rows after appends = %d, want 1020", tb.NumRows())
	}
}
