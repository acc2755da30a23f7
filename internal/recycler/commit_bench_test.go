package recycler

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/bat"
	"repro/internal/catalog"
	"repro/internal/mal"
	"repro/internal/sky"
	"repro/internal/sqlfe"
)

// commitFixture is the sky-rw write path in process: sky.photoobj (23
// columns) under a KeepAll / SyncMaintain recycler whose pool is warm
// with 64 bounding-box COUNT(*) chains — three bound columns (ra, dec,
// mode) and a few hundred filter / project / aggregate entries, the
// pool the benchmark's sky-rw workload commits against. It is in that
// workload's steady state: a row has been committed into every
// statement's box (each chain has been through maintenance once, the
// columns have taken their first capacity growth) and one row deleted
// again, so the table carries a tombstone and every bind is
// materialised.
type commitFixture struct {
	rec   *Recycler
	cat   *catalog.Catalog
	tb    *catalog.Table
	rng   *rand.Rand
	boxes [][4]float64 // raLo, raHi, decLo, decHi
	objid int64
}

func newCommitFixture(tb testing.TB, objects int) *commitFixture {
	db := sky.Generate(objects, 1)
	f := &commitFixture{
		rec:   New(db.Cat, Config{Admission: KeepAll, Sync: SyncMaintain}),
		cat:   db.Cat,
		tb:    db.Table("photoobj"),
		rng:   rand.New(rand.NewSource(7)),
		objid: int64(0x0500000000000000) + 100_000_000,
	}
	tb.Cleanup(f.close)
	fe := sqlfe.NewFrontend(db.Cat)
	for qid := uint64(1); qid <= 64; qid++ {
		raLo := float64(f.rng.Intn(640)) * 0.5
		decLo := float64(f.rng.Intn(300))*0.5 - 85
		box := [4]float64{raLo, raLo + float64(f.rng.Intn(8)+1)*0.5, decLo, decLo + float64(f.rng.Intn(6)+1)*0.5}
		f.boxes = append(f.boxes, box)
		q := fmt.Sprintf("SELECT COUNT(*) FROM sky.photoobj WHERE ra BETWEEN %g AND %g AND dec BETWEEN %g AND %g AND mode = 1",
			box[0], box[1], box[2], box[3])
		tmpl, params, err := fe.Compile(q)
		if err != nil {
			tb.Fatalf("compile %q: %v", q, err)
		}
		ctx := &mal.Ctx{Cat: db.Cat, Hook: f.rec, QueryID: qid}
		f.rec.BeginQuery(qid, tmpl.ID)
		err = mal.Run(ctx, tmpl, params...)
		f.rec.EndQuery(qid)
		if err != nil {
			tb.Fatalf("warm %q: %v", q, err)
		}
	}
	for i := range f.boxes {
		f.insertInto(i)
	}
	f.tb.Delete([]bat.Oid{f.insert()})
	if st := f.rec.Snapshot(); st.Maintained == 0 || st.MaintainFallback != 0 || st.Invalidated != 0 {
		tb.Fatalf("fixture pool is not maintained: %+v", st)
	}
	return f
}

// close retires the fixture's recycler and lets go of its catalog, so
// a benchmark building one fixture per batch holds one at a time.
func (f *commitFixture) close() {
	if f.rec != nil {
		f.rec.Close()
		*f = commitFixture{}
	}
}

// insert commits one full row whose ra/dec land inside one of the
// warm statements' boxes, so the delta reaches that chain.
func (f *commitFixture) insert() bat.Oid { return f.insertInto(f.rng.Intn(len(f.boxes))) }

func (f *commitFixture) insertInto(i int) bat.Oid {
	box := f.boxes[i]
	row := catalog.Row{}
	for _, c := range f.tb.Cols {
		switch {
		case c.Name == "objid":
			row[c.Name] = f.objid
			f.objid++
		case c.Name == "ra":
			row[c.Name] = box[0] + f.rng.Float64()*(box[1]-box[0])
		case c.Name == "dec":
			row[c.Name] = box[2] + f.rng.Float64()*(box[3]-box[2])
		case c.Name == "mode":
			row[c.Name] = int64(f.rng.Intn(2) + 1)
		case c.KindOf == bat.KInt:
			row[c.Name] = int64(f.rng.Intn(8))
		default:
			row[c.Name] = 10 + f.rng.Float64()*15
		}
	}
	return f.tb.Append([]catalog.Row{row})
}

// poolOther admits n more entries, over sky.elredshift — COUNT(*)
// over distinct redshift ranges — which a commit to photoobj finds
// nothing to do for but must scan past.
func (f *commitFixture) poolOther(tb testing.TB, n int) {
	fe := sqlfe.NewFrontend(f.cat)
	want := f.rec.PoolLen() + n
	for qid := uint64(1_000); f.rec.PoolLen() < want; qid++ {
		lo := float64(qid) / 1e6
		q := fmt.Sprintf("SELECT COUNT(*) FROM sky.elredshift WHERE z BETWEEN %g AND %g", lo, lo+0.01)
		tmpl, params, err := fe.Compile(q)
		if err != nil {
			tb.Fatalf("compile %q: %v", q, err)
		}
		ctx := &mal.Ctx{Cat: f.cat, Hook: f.rec, QueryID: qid}
		f.rec.BeginQuery(qid, tmpl.ID)
		err = mal.Run(ctx, tmpl, params...)
		f.rec.EndQuery(qid)
		if err != nil {
			tb.Fatalf("warm %q: %v", q, err)
		}
	}
}

var commitBenchSizes = []int{20_000, 200_000}

// BenchmarkCommitInsert times one single-row INSERT commit — catalog
// append plus the recycler's maintenance walk — at two table sizes.
// ns/op must not track the table size. The other=10000 case adds 10⁴
// pooled entries over a table the commit does not write, which the
// walk must not pay for: it reads the written table's entry list only.
// reached/op is the entries whose result the walk changed.
func BenchmarkCommitInsert(b *testing.B) {
	run := func(name string, rows, other int) {
		b.Run(name, func(b *testing.B) {
			f := newCommitFixture(b, rows)
			f.poolOther(b, other)
			before := f.rec.Snapshot().Reached
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.insert()
			}
			b.StopTimer()
			b.ReportMetric(float64(f.rec.PoolLen()), "entries")
			b.ReportMetric(float64(f.rec.Snapshot().Reached-before)/float64(b.N), "reached/op")
		})
	}
	for _, n := range commitBenchSizes {
		run(fmt.Sprintf("rows=%d", n), n, 0)
	}
	run("rows=20000,other=10000", 20_000, 10_000)
}

// commitDeleteBatch is how many rows BenchmarkCommitDelete inserts,
// then deletes, per fixture.
const commitDeleteBatch = 1000

// BenchmarkCommitDelete times one single-row DELETE commit of an
// earlier insert: no column is copied, so what is left is the filter
// and project results the dead row leaves (one copy each) and the
// tombstone list, which the tombstones=10000 case prices: the delete
// merges its row into a copy of the list. The deletes run in batches
// of commitDeleteBatch rows, each against a fresh fixture that inserts
// the batch's rows with the timer stopped, so every batch deletes from
// the same state and B/op does not depend on b.N: deleting b.N earlier
// inserts from one fixture grows both the results each delete copies
// and the tombstone list it merges into with b.N.
func BenchmarkCommitDelete(b *testing.B) {
	run := func(name string, rows, tombstones int) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for done := 0; done < b.N; {
				b.StopTimer()
				f := newCommitFixture(b, rows)
				if tombstones > 0 {
					dead := make([]bat.Oid, tombstones)
					for i := range dead {
						dead[i] = bat.Oid(i * (rows / tombstones))
					}
					f.tb.Delete(dead)
				}
				oids := make([]bat.Oid, min(commitDeleteBatch, b.N-done))
				for i := range oids {
					oids[i] = f.insert()
				}
				b.StartTimer()
				for _, o := range oids {
					f.tb.Delete([]bat.Oid{o})
				}
				b.StopTimer()
				f.close()
				done += len(oids)
			}
		})
	}
	for _, n := range commitBenchSizes {
		run(fmt.Sprintf("rows=%d", n), n, 0)
	}
	run("rows=200000,tombstones=10000", 200_000, 10_000)
}

// insertAllocCeiling is the measured allocation count of one
// single-row insert commit in TestCommitAllocations, the row's map and
// vectors included: a commit builds nothing per column for a consumer
// that may not read it. A -race build allocates more and is not held
// to it.
const insertAllocCeiling = 344

// TestCommitAllocations pins the O(delta) commits against the
// 200k-row, 23-column table with the warm maintained pool. One
// single-row insert may allocate 64 KB (a copy-on-write append of the
// columns alone is 37 MB) in insertAllocCeiling allocations. One
// single-row delete of an earlier insert may allocate 512 KB: it
// copies no column (one is 1.6 MB, and the bound ones plus the live
// oids were 7 MB a delete), only the filter and project results the
// dead row leaves, a few thousand rows each at this size. Neither may
// fall back.
func TestCommitAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 200k-row catalog")
	}
	f := newCommitFixture(t, 200_000)
	const commits = 10
	perCommit := func(commit func(i int)) (bytes, allocs uint64) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < commits; i++ {
			commit(i)
		}
		runtime.ReadMemStats(&m1)
		return (m1.TotalAlloc - m0.TotalAlloc) / commits, (m1.Mallocs - m0.Mallocs) / commits
	}
	f.insert() // the walk's own first-use allocations
	per, allocs := perCommit(func(int) { f.insert() })
	if per > 64<<10 {
		t.Fatalf("one insert commit allocated %d bytes, want <= %d", per, 64<<10)
	}
	if allocs > insertAllocCeiling && !raceEnabled {
		t.Fatalf("one insert commit made %d allocations, want <= %d", allocs, insertAllocCeiling)
	}
	var oids []bat.Oid
	for i := 0; i < commits; i++ {
		oids = append(oids, f.insert())
	}
	if per, _ := perCommit(func(i int) { f.tb.Delete(oids[i : i+1]) }); per > 512<<10 {
		t.Fatalf("one delete commit allocated %d bytes, want <= %d", per, 512<<10)
	}
	if st := f.rec.Snapshot(); st.MaintainFallback != 0 || st.Invalidated != 0 {
		t.Fatalf("commits fell back: %+v", st)
	}
}
