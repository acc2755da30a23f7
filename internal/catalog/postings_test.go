package catalog

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/algebra"
	"repro/internal/bat"
)

// TestJoinIndexPostingsConcurrent binds a join index and joins it at
// pinned snapshots while appends and then deletes commit: the binds of
// one version share one postings handle, built by whichever join asks
// first, and every join equals the scan path (the same tail without
// postings) at its version.
func TestJoinIndexPostingsConcurrent(t *testing.T) {
	const np, nc = 300, 3000
	c := New()
	parent := c.CreateTable("sys", "p", []ColDef{{Name: "pk", Kind: bat.KInt}})
	rows := make([]Row, np)
	for i := range rows {
		rows[i] = Row{"pk": int64(i)}
	}
	parent.Append(rows)
	child := c.CreateTable("sys", "c", []ColDef{{Name: "fk", Kind: bat.KInt}})
	fkRows := func(rng *rand.Rand, n int) []Row {
		rows := make([]Row, n)
		for i := range rows {
			rows[i] = Row{"fk": int64(rng.Intn(np + 10))} // ≈3 % name no parent
		}
		return rows
	}
	child.Append(fkRows(rand.New(rand.NewSource(50)), nc))
	child.DefineJoinIndex("c_fk_p", "fk", parent, "pk")

	var wg sync.WaitGroup
	var rounds, withPostings atomic.Int64
	done := make(chan struct{})
	errs := make(chan error, 4)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		rng := rand.New(rand.NewSource(51))
		for i := 0; i < 60; i++ {
			for rounds.Load() < int64(3*i) && len(errs) == 0 {
				runtime.Gosched() // let the readers see every version
			}
			if i < 40 {
				child.Append(fkRows(rng, 1+rng.Intn(40)))
			} else {
				child.Delete([]bat.Oid{bat.Oid(rng.Intn(nc))})
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			// At least 50 rounds, and one more after the last commit.
			for round, stop := 0, false; !stop; round++ {
				select {
				case <-done:
					stop = round >= 50
				default:
				}
				s, _ := c.Pin("sys.c")
				l := child.BindIdxAt(s, "c_fk_p")
				if l.Tail.(*bat.Oids).Postings() != nil {
					withPostings.Add(1)
				}
				if err := checkPostingsJoin(s, l, rng); err != nil {
					errs <- err
					return
				}
				rounds.Add(1)
			}
		}(int64(60 + g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if withPostings.Load() == 0 {
		t.Fatal("no join ran with postings")
	}
}

// checkPostingsJoin joins l, bound at s, against a few parent oids
// (NilOid among them now and then) and compares the result with the
// scan path's.
func checkPostingsJoin(s Snapshot, l *bat.BAT, rng *rand.Rand) error {
	tail := l.Tail.(*bat.Oids)
	if s.v.tomb != nil && tail.Postings() != nil {
		return fmt.Errorf("version %d with tombstones carries postings", s.Stamp.Version)
	}
	if l.Len() != s.v.nrows-len(s.v.deleted()) {
		return fmt.Errorf("version %d: bind of %d rows, want %d", s.Stamp.Version, l.Len(), s.v.nrows-len(s.v.deleted()))
	}
	rh := make([]bat.Oid, 1+rng.Intn(8))
	for i := range rh {
		rh[i] = bat.Oid(rng.Intn(300))
		if rng.Intn(6) == 0 {
			rh[i] = bat.NilOid
		}
	}
	r := bat.New(bat.NewOids(rh), bat.NewDense(0, len(rh)))
	got := algebra.Join(l, r)
	want := algebra.Join(bat.New(l.Head, bat.NewOids(slices.Clone(tail.V))), r)
	if got.Len() != want.Len() {
		return fmt.Errorf("version %d: %d join rows, scan path %d", s.Stamp.Version, got.Len(), want.Len())
	}
	for i := 0; i < got.Len(); i++ {
		if bat.OidAt(got.Head, i) != bat.OidAt(want.Head, i) || bat.OidAt(got.Tail, i) != bat.OidAt(want.Tail, i) {
			return fmt.Errorf("version %d row %d: (%d, %d), scan path (%d, %d)", s.Stamp.Version, i,
				bat.OidAt(got.Head, i), bat.OidAt(got.Tail, i), bat.OidAt(want.Head, i), bat.OidAt(want.Tail, i))
		}
	}
	return nil
}
