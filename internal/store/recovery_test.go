package store

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/bat"
	"repro/internal/catalog"
)

// dmlStep is one statement of a recovery scenario, applied identically
// to the durable catalog and to the never-crashed reference.
type dmlStep func(cat *catalog.Catalog)

func insertPeople(rows ...[2]any) dmlStep {
	return func(cat *catalog.Catalog) {
		t := cat.MustTable("sys", "people")
		rs := make([]catalog.Row, len(rows))
		for i, r := range rows {
			rs[i] = catalog.Row{"id": r[0], "name": r[1]}
		}
		t.Append(rs)
	}
}

func deletePeople(oids ...bat.Oid) dmlStep {
	return func(cat *catalog.Catalog) {
		cat.MustTable("sys", "people").Delete(oids)
	}
}

// updatePeople renames the person at oid the way the engine updates a
// row: the old version is deleted and the new one appended.
func updatePeople(oid bat.Oid, id int64, name string) dmlStep {
	return func(cat *catalog.Catalog) {
		t := cat.MustTable("sys", "people")
		t.Delete([]bat.Oid{oid})
		t.Append([]catalog.Row{{"id": id, "name": name}})
	}
}

func createScores() dmlStep {
	return func(cat *catalog.Catalog) {
		cat.CreateTable("sys", "scores", []catalog.ColDef{
			{Name: "pid", Kind: bat.KInt},
			{Name: "score", Kind: bat.KFloat},
		})
	}
}

func insertScores(rows ...[2]any) dmlStep {
	return func(cat *catalog.Catalog) {
		t := cat.MustTable("sys", "scores")
		rs := make([]catalog.Row, len(rows))
		for i, r := range rows {
			rs[i] = catalog.Row{"pid": r[0], "score": r[1]}
		}
		t.Append(rs)
	}
}

// seedCatalog builds the base schema + bulk load every scenario starts
// from (what Bootstrap snapshots before any WAL record exists).
func seedCatalog() *catalog.Catalog {
	cat := catalog.New()
	t := cat.CreateTable("sys", "people", []catalog.ColDef{
		{Name: "id", Kind: bat.KInt, Sorted: true},
		{Name: "name", Kind: bat.KStr},
	})
	t.Append([]catalog.Row{
		{"id": int64(1), "name": "ada"},
		{"id": int64(2), "name": "grace"},
		{"id": int64(3), "name": "hédy 🙂"},
	})
	t.DefineKeyIndex("id")
	return cat
}

// catalogsEqual compares the full durable state of two catalogs,
// commit sequence and table versions included.
func catalogsEqual(t *testing.T, got, want *catalog.Catalog) {
	t.Helper()
	gt, gseq := got.ExportState()
	wt, wseq := want.ExportState()
	if gseq != wseq {
		t.Errorf("commit seq: got %d, want %d", gseq, wseq)
	}
	if len(gt) != len(wt) {
		t.Fatalf("table count: got %d, want %d", len(gt), len(wt))
	}
	for i := range gt {
		g, w := gt[i], wt[i]
		if g.Schema != w.Schema || g.Name != w.Name {
			t.Fatalf("table %d: got %s.%s, want %s.%s", i, g.Schema, g.Name, w.Schema, w.Name)
		}
		if g.NRows != w.NRows {
			t.Errorf("%s.%s rows: got %d, want %d", g.Schema, g.Name, g.NRows, w.NRows)
		}
		if g.Version != w.Version {
			t.Errorf("%s.%s version: got %d, want %d", g.Schema, g.Name, g.Version, w.Version)
		}
		if len(g.Deleted) != len(w.Deleted) {
			t.Errorf("%s.%s deleted: got %v, want %v", g.Schema, g.Name, g.Deleted, w.Deleted)
		} else {
			for j := range g.Deleted {
				if g.Deleted[j] != w.Deleted[j] {
					t.Errorf("%s.%s deleted[%d]: got %d, want %d", g.Schema, g.Name, j, g.Deleted[j], w.Deleted[j])
				}
			}
		}
		if len(g.Cols) != len(w.Cols) {
			t.Fatalf("%s.%s columns: got %d, want %d", g.Schema, g.Name, len(g.Cols), len(w.Cols))
		}
		for j := range g.Cols {
			if g.Cols[j] != w.Cols[j] {
				t.Errorf("%s.%s col %d def: got %+v, want %+v", g.Schema, g.Name, j, g.Cols[j], w.Cols[j])
			}
			if !vectorsEqual(g.Data[j], w.Data[j]) {
				t.Errorf("%s.%s.%s data mismatch", g.Schema, g.Name, g.Cols[j].Name)
			}
		}
		if len(g.KeyIndexCols) != len(w.KeyIndexCols) {
			t.Errorf("%s.%s key indexes: got %v, want %v", g.Schema, g.Name, g.KeyIndexCols, w.KeyIndexCols)
		}
	}
}

// runCrash bootstraps a store, applies pre steps, optionally
// checkpoints, applies post steps, then "crashes" (no checkpoint, no
// close) and recovers from disk. The recovered catalog must equal a
// reference that executed the same steps with no store at all.
func runCrash(t *testing.T, pre, post []dmlStep, midCheckpoint bool) (*Store, *catalog.Catalog) {
	t.Helper()
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cat := seedCatalog()
	if err := st.Bootstrap(cat); err != nil {
		t.Fatal(err)
	}
	for _, s := range pre {
		s(cat)
	}
	if midCheckpoint {
		if err := st.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range post {
		s(cat)
	}
	// Crash: the store is abandoned with the WAL unclosed. SyncEvery=0
	// means every commit was fsynced, so the on-disk log is complete.
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := st2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st2.Close(); st.Close() })

	ref := seedCatalog()
	for _, s := range pre {
		s(ref)
	}
	for _, s := range post {
		s(ref)
	}
	catalogsEqual(t, recovered, ref)
	return st2, recovered
}

func TestCrashRecoveryInterleavings(t *testing.T) {
	cases := []struct {
		name          string
		pre, post     []dmlStep
		midCheckpoint bool
	}{
		{"inserts-only", nil, []dmlStep{
			insertPeople([2]any{int64(4), "alan"}),
			insertPeople([2]any{int64(5), "barbara"}, [2]any{int64(6), "ken"}),
		}, false},
		{"insert-delete", nil, []dmlStep{
			insertPeople([2]any{int64(4), "alan"}),
			deletePeople(1),
			insertPeople([2]any{int64(5), "barbara"}),
			deletePeople(3, 4),
		}, false},
		{"insert-delete-update", nil, []dmlStep{
			insertPeople([2]any{int64(4), "alan"}),
			updatePeople(0, 1, "ada lovelace"),
			deletePeople(2),
			updatePeople(3, 4, "turing"),
		}, false},
		{"create-table-mid-stream", nil, []dmlStep{
			insertPeople([2]any{int64(4), "alan"}),
			createScores(),
			insertScores([2]any{int64(1), 9.5}, [2]any{int64(4), 7.25}),
			deletePeople(1),
		}, false},
		{"checkpoint-then-tail", []dmlStep{
			insertPeople([2]any{int64(4), "alan"}),
			deletePeople(2),
		}, []dmlStep{
			insertPeople([2]any{int64(5), "barbara"}),
			updatePeople(0, 1, "countess"),
		}, true},
		{"checkpoint-then-create", []dmlStep{
			createScores(),
			insertScores([2]any{int64(2), 5.5}),
		}, []dmlStep{
			insertScores([2]any{int64(3), 1.25}),
			deletePeople(1),
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runCrash(t, tc.pre, tc.post, tc.midCheckpoint)
		})
	}
}

// TestTornTailDiscarded chops bytes off the final WAL record: recovery
// must detect the tear, discard exactly that record, and reproduce the
// reference state that never ran the final statement.
func TestTornTailDiscarded(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cat := seedCatalog()
	if err := st.Bootstrap(cat); err != nil {
		t.Fatal(err)
	}
	insertPeople([2]any{int64(4), "alan"})(cat)
	deletePeople(1)(cat)
	insertPeople([2]any{int64(5), "torn-away"})(cat) // this one gets torn

	segs, err := listSegments(filepath.Join(dir, "wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no wal segments: %v", err)
	}
	last := segs[len(segs)-1]
	info, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, info.Size()-5); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := st2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if !st2.TornTail {
		t.Error("torn tail not reported")
	}
	if st2.Replayed != 2 {
		t.Errorf("replayed %d records, want 2 (torn third discarded)", st2.Replayed)
	}

	ref := seedCatalog()
	insertPeople([2]any{int64(4), "alan"})(ref)
	deletePeople(1)(ref)
	catalogsEqual(t, recovered, ref)
}

// TestTornTailGarbageAppended covers the other tear shape: a crash
// leaves trailing garbage that looks like a frame header but fails its
// checksum.
func TestTornTailGarbageAppended(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cat := seedCatalog()
	if err := st.Bootstrap(cat); err != nil {
		t.Fatal(err)
	}
	insertPeople([2]any{int64(4), "alan"})(cat)

	segs, _ := listSegments(filepath.Join(dir, "wal"))
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{16, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3})
	f.Close()

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := st2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if !st2.TornTail || st2.Replayed != 1 {
		t.Errorf("torn=%v replayed=%d, want torn tail with 1 record", st2.TornTail, st2.Replayed)
	}
	ref := seedCatalog()
	insertPeople([2]any{int64(4), "alan"})(ref)
	catalogsEqual(t, recovered, ref)
}

// TestWALGapFailsRecovery: a missing commit mid-log (an append that
// failed while later ones succeeded) must fail recovery loudly, not
// replay the remaining records onto divergent state.
func TestWALGapFailsRecovery(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cat := seedCatalog()
	if err := st.Bootstrap(cat); err != nil {
		t.Fatal(err)
	}
	insertPeople([2]any{int64(4), "alan"})(cat)
	insertPeople([2]any{int64(5), "barbara"})(cat)
	insertPeople([2]any{int64(6), "ken"})(cat)

	// Rewrite the active segment dropping the middle record.
	segs, _ := listSegments(filepath.Join(dir, "wal"))
	last := segs[len(segs)-1]
	f, err := os.Open(last)
	if err != nil {
		t.Fatal(err)
	}
	var frames [][]byte
	for {
		p, err := readFrame(f)
		if err != nil {
			break
		}
		frames = append(frames, p)
	}
	f.Close()
	if len(frames) != 3 {
		t.Fatalf("expected 3 WAL frames, got %d", len(frames))
	}
	out, err := os.Create(last)
	if err != nil {
		t.Fatal(err)
	}
	writeFrame(out, frames[0])
	writeFrame(out, frames[2])
	out.Close()

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st2.Recover(); err == nil {
		t.Fatal("recovery over a WAL gap succeeded; want loud failure")
	}
	st2.Close()
}

// TestWALReservedKindFailsRecovery: kind 3 once numbered in-place
// column updates. Nothing writes it any more, and a log that still
// holds one — laid out as those records were — must fail decoding and
// recovery loudly (ErrCorrupt), neither panicking nor skipping it.
func TestWALReservedKindFailsRecovery(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cat := seedCatalog()
	if err := st.Bootstrap(cat); err != nil {
		t.Fatal(err)
	}
	insertPeople([2]any{int64(4), "alan"})(cat)
	seq := cat.CommitSeq()
	st.Close()

	e := &enc{}
	e.u8(3)
	e.u64(seq + 1)
	e.str("sys")
	e.str("people")
	e.str("name")
	e.u32(1)
	e.u64(0)
	encodeVector(e, bat.NewStrings([]string{"countess"}))
	if _, _, err := decodeCommit(e.b); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("decoding a kind-3 record: %v, want ErrCorrupt", err)
	}

	segs, _ := listSegments(filepath.Join(dir, "wal"))
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(f, e.b); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(f, encodeCommit(catalog.Commit{Seq: seq + 2, Kind: catalog.CommitDelete, Schema: "sys", Name: "people", Deleted: []bat.Oid{1}})); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if _, err := st2.Recover(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("recovery over a kind-3 record: %v, want ErrCorrupt", err)
	}
}

// TestWALReplayMatchesColumnsByName: replay puts each vector of an
// insert record into the column it names, whatever order the record
// lists them in, and refuses a record naming a column the table lacks.
func TestWALReplayMatchesColumnsByName(t *testing.T) {
	for _, tc := range []struct {
		names []string
		ok    bool
	}{
		{[]string{"name", "id"}, true},
		{[]string{"name", "idd"}, false},
		{[]string{"name", "name"}, false},
	} {
		dir := t.TempDir()
		st, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		cat := seedCatalog()
		if err := st.Bootstrap(cat); err != nil {
			t.Fatal(err)
		}
		seq := cat.CommitSeq()
		st.Close()

		e := &enc{}
		e.u8(uint8(catalog.CommitInsert))
		e.u64(seq + 1)
		e.str("sys")
		e.str("people")
		e.u64(3)
		e.u32(1)
		e.u32(2)
		e.str(tc.names[0])
		encodeVector(e, bat.NewStrings([]string{"alan"}))
		e.str(tc.names[1])
		encodeVector(e, bat.NewInts([]int64{4}))
		segs, _ := listSegments(filepath.Join(dir, "wal"))
		f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := writeFrame(f, e.b); err != nil {
			t.Fatal(err)
		}
		f.Close()

		st2, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := st2.Recover()
		st2.Close()
		if !tc.ok {
			if err == nil {
				t.Fatalf("columns %q: recovery succeeded", tc.names)
			}
			continue
		}
		if err != nil {
			t.Fatalf("columns %q: %v", tc.names, err)
		}
		want := seedCatalog()
		insertPeople([2]any{int64(4), "alan"})(want)
		catalogsEqual(t, got, want)
	}
}

// TestCheckpointRetiresSegments verifies a checkpoint leaves nothing
// to replay and deletes the covered segments.
func TestCheckpointRetiresSegments(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cat := seedCatalog()
	if err := st.Bootstrap(cat); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		insertPeople([2]any{int64(10 + i), "x"})(cat)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := st2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Replayed != 0 {
		t.Errorf("replayed %d records after checkpoint, want 0", st2.Replayed)
	}
	catalogsEqual(t, recovered, cat)
	segs, _ := listSegments(filepath.Join(dir, "wal"))
	// Only segments opened after the last checkpoint may remain, and
	// they must all be empty.
	for _, s := range segs {
		if info, err := os.Stat(s); err == nil && info.Size() > 0 {
			t.Errorf("retired segment %s still has %d bytes", filepath.Base(s), info.Size())
		}
	}
}

// TestBatchedSyncStillRecovers exercises the fsync-batched WAL mode:
// with SyncEvery > 0 a graceful close must flush everything.
func TestBatchedSyncStillRecovers(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{SyncEvery: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	cat := seedCatalog()
	if err := st.Bootstrap(cat); err != nil {
		t.Fatal(err)
	}
	insertPeople([2]any{int64(4), "alan"})(cat)
	deletePeople(0)(cat)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := st2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	ref := seedCatalog()
	insertPeople([2]any{int64(4), "alan"})(ref)
	deletePeople(0)(ref)
	catalogsEqual(t, recovered, ref)
}

// TestRecoveredCatalogAcceptsNewCommits closes the loop: a recovered
// store keeps logging, and a second recovery sees both generations.
func TestRecoveredCatalogAcceptsNewCommits(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cat := seedCatalog()
	if err := st.Bootstrap(cat); err != nil {
		t.Fatal(err)
	}
	insertPeople([2]any{int64(4), "alan"})(cat)

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	gen2, err := st2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	insertPeople([2]any{int64(5), "barbara"})(gen2)
	deletePeople(1)(gen2)

	st3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	gen3, err := st3.Recover()
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()

	ref := seedCatalog()
	insertPeople([2]any{int64(4), "alan"})(ref)
	insertPeople([2]any{int64(5), "barbara"})(ref)
	deletePeople(1)(ref)
	catalogsEqual(t, gen3, ref)

	// The recovered key index must behave like the reference's.
	if o, ok := gen3.MustTable("sys", "people").LookupKey("id", 5); !ok || o != 4 {
		t.Errorf("recovered key index lookup: got (%d, %v), want (4, true)", o, ok)
	}
	if _, ok := gen3.MustTable("sys", "people").LookupKey("id", 2); ok {
		t.Error("tombstoned row still visible through recovered key index")
	}
}
