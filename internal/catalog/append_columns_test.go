package catalog

import (
	"slices"
	"testing"

	"repro/internal/bat"
)

// TestAppendColumnsRefusesBadInput: a wrong column count, a column of
// the wrong kind, a missing column or columns of different lengths is
// an error before anything is published: the table keeps its stamp and
// rows, the log gets no record, no listener hears of it, the key index
// does not learn the new key and no dictionary grows by the value no
// row holds.
func TestAppendColumnsRefusesBadInput(t *testing.T) {
	c := New()
	tb := c.CreateTable("sys", "w", []ColDef{{Name: "s", Kind: bat.KStr}, {Name: "n", Kind: bat.KInt}, {Name: "f", Kind: bat.KFloat}})
	if _, err := tb.AppendColumns([]bat.Vector{bat.NewStrings([]string{"a"}), bat.NewInts([]int64{1}), bat.NewFloats([]float64{1})}); err != nil {
		t.Fatal(err)
	}
	tb.DefineKeyIndex("n")
	var records, events int
	c.SetCommitHook(func(Commit) { records++ })
	c.AddListener(countListener{n: &events})
	d := current(tb.MustColumn("s")).data.(*bat.Strings).D
	before, _ := c.Pin("sys.w")
	seq := c.CommitSeq()

	str := func(v ...string) bat.Vector { return bat.NewStrings(v) }
	ints := func(v ...int64) bat.Vector { return bat.NewInts(v) }
	floats := func(v ...float64) bat.Vector { return bat.NewFloats(v) }
	for name, cols := range map[string][]bat.Vector{
		"too few columns":  {str("new"), ints(2)},
		"too many columns": {str("new"), ints(2), floats(2), floats(2)},
		"wrong kind":       {str("new"), floats(2), floats(2)},
		"missing column":   {str("new"), nil, floats(2)},
		"ragged first":     {str("new", "newer"), ints(2), floats(2)},
		"ragged last":      {str("new"), ints(2), floats(2, 3)},
	} {
		if _, err := tb.AppendColumns(cols); err == nil {
			t.Errorf("%s: append succeeded", name)
		}
	}
	if got := d.Values(); !slices.Equal(got, []string{"a"}) {
		t.Fatalf("dictionary after the failed appends = %q, want [a]", got)
	}
	for _, col := range tb.Cols {
		if n := current(col).data.Len(); n != 1 {
			t.Fatalf("column %s holds %d values after the failed appends, want 1", col.Name, n)
		}
	}
	if after, _ := c.Pin("sys.w"); after.Stamp != before.Stamp || after.Len() != 1 {
		t.Fatalf("the failed appends moved the table from %+v to %+v (%d rows)", before.Stamp, after.Stamp, after.Len())
	}
	if records != 0 || events != 0 || c.CommitSeq() != seq {
		t.Fatalf("the failed appends logged %d records, notified %d listeners, moved the commit sequence %d -> %d", records, events, seq, c.CommitSeq())
	}
	if _, ok := tb.LookupKey("n", 2); ok {
		t.Fatal("the key index learned a key no row holds")
	}
}

// TestAppendColumnsSharesTheColumnDictionary: strings appended to a
// loaded column arrive in the codes of its dictionary, so the delta the
// listeners and the log get, and the column, share one set of codes;
// a load into an empty column adopts the vector it is given.
func TestAppendColumnsSharesTheColumnDictionary(t *testing.T) {
	c := New()
	tb := c.CreateTable("sys", "w", []ColDef{{Name: "s", Kind: bat.KStr}})
	load := bat.NewStrings([]string{"a", "b"})
	if _, err := tb.AppendColumns([]bat.Vector{load}); err != nil {
		t.Fatal(err)
	}
	if current(tb.MustColumn("s")).data != bat.Vector(load) {
		t.Fatal("a load into an empty column copied its vector")
	}
	var got []Commit
	c.SetCommitHook(func(r Commit) { got = append(got, r) })
	first, err := tb.AppendColumns([]bat.Vector{bat.NewStrings([]string{"c", "a"})})
	if err != nil || first != 2 {
		t.Fatalf("append: first %d, %v", first, err)
	}
	col := current(tb.MustColumn("s")).data.(*bat.Strings)
	delta := got[0].Inserts[0].(*bat.Strings)
	if delta.D != col.D || !slices.Equal(delta.C, []uint32{2, 0}) {
		t.Fatalf("delta codes %v over its own dictionary %v, want [2 0] over the column's", delta.C, delta.D != col.D)
	}
	if vals := col.Decode(); !slices.Equal(vals, []string{"a", "b", "c", "a"}) {
		t.Fatalf("column = %q", vals)
	}
}
