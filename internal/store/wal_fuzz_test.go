package store

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/bat"
	"repro/internal/catalog"
)

// FuzzDecodeCommit: whatever bytes a WAL frame holds, decodeCommit
// returns a commit or ErrCorrupt and never panics, and a commit it
// returns encodes to bytes that decode to the same commit. Before
// fuzzing, the commits a live catalog hands its hook — one of every
// kind, the insert over a column of every vector kind — must
// round-trip; their encodings seed the fuzzer beside the checked-in
// corpus (testdata/fuzz/FuzzDecodeCommit).
func FuzzDecodeCommit(f *testing.F) {
	for _, c := range liveCommits() {
		payload := encodeCommit(c)
		var names []string
		if c.Kind == catalog.CommitInsert {
			for _, col := range c.Table.Cols {
				names = append(names, col.Name)
			}
		}
		got, gotNames, err := decodeCommit(payload)
		if err != nil {
			f.Fatalf("kind %d: %v", c.Kind, err)
		}
		if !sameCommit(got, gotNames, c, names) {
			f.Fatalf("kind %d: encoded %+v, decoded %+v", c.Kind, c, got)
		}
		f.Add(payload)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		c, names, err := decodeCommit(payload)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode failed with %v, not ErrCorrupt", err)
			}
			return
		}
		if c.Kind == catalog.CommitInsert {
			// The encoder reads the names off the commit's table.
			defs := make([]catalog.ColDef, len(names))
			for i, v := range c.Inserts {
				defs[i] = catalog.ColDef{Name: names[i], Kind: v.Kind()}
			}
			c.Table = catalog.New().CreateTable(c.Schema, c.Name, defs)
		}
		again, againNames, err := decodeCommit(encodeCommit(c))
		if err != nil {
			t.Fatalf("re-encoded commit %+v does not decode: %v", c, err)
		}
		if !sameCommit(again, againNames, c, names) {
			t.Fatalf("decoded %+v, re-encoded and decoded %+v", c, again)
		}
	})
}

// liveCommits returns the commits a catalog hands its hook for a
// create, an insert of two rows, a delete and a drop.
func liveCommits() []catalog.Commit {
	cat := catalog.New()
	var out []catalog.Commit
	cat.SetCommitHook(func(c catalog.Commit) { out = append(out, c) })
	tb := cat.CreateTable("sys", "every", []catalog.ColDef{
		{Name: "i", Kind: bat.KInt, Sorted: true},
		{Name: "f", Kind: bat.KFloat},
		{Name: "s", Kind: bat.KStr},
		{Name: "d", Kind: bat.KDate},
		{Name: "o", Kind: bat.KOid},
		{Name: "b", Kind: bat.KBool},
	})
	if _, err := tb.AppendColumns([]bat.Vector{
		bat.NewInts([]int64{1, bat.NilInt}),
		bat.NewFloats([]float64{-1.5, bat.NilFloat()}),
		bat.NewStrings([]string{"héllo 🙂", bat.NilStr}),
		bat.NewDates([]bat.Date{20000, bat.NilDate}),
		bat.NewDense(7, 2),
		bat.NewBools([]bool{true, false}),
	}); err != nil {
		panic(err)
	}
	tb.Delete([]bat.Oid{1, 0})
	cat.DropTable("sys", "every")
	return out
}

// sameCommit reports whether two commits, with the column names of
// their insert vectors, hold the same record.
func sameCommit(a catalog.Commit, aNames []string, b catalog.Commit, bNames []string) bool {
	if a.Seq != b.Seq || a.Kind != b.Kind || a.Schema != b.Schema || a.Name != b.Name ||
		!slices.Equal(a.Cols, b.Cols) || a.FirstOid != b.FirstOid || a.NumRows != b.NumRows ||
		!slices.Equal(a.Deleted, b.Deleted) || !slices.Equal(aNames, bNames) || len(a.Inserts) != len(b.Inserts) {
		return false
	}
	for i := range a.Inserts {
		if !vectorsEqual(a.Inserts[i], b.Inserts[i]) {
			return false
		}
	}
	return true
}
