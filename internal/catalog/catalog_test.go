package catalog

import (
	"testing"

	"repro/internal/bat"
)

func twoColTable(t *testing.T) (*Catalog, *Table) {
	t.Helper()
	c := New()
	tb := c.CreateTable("sys", "orders", []ColDef{
		{Name: "o_orderkey", Kind: bat.KInt},
		{Name: "o_total", Kind: bat.KFloat},
	})
	tb.Append([]Row{
		{"o_orderkey": int64(1), "o_total": 10.0},
		{"o_orderkey": int64(2), "o_total": 20.0},
		{"o_orderkey": int64(3), "o_total": 30.0},
	})
	return c, tb
}

func TestCreateAndBind(t *testing.T) {
	_, tb := twoColTable(t)
	if tb.NumRows() != 3 {
		t.Fatalf("rows = %d", tb.NumRows())
	}
	b := tb.MustColumn("o_total").Bind()
	if b.Len() != 3 || b.Tail.Get(1) != 20.0 {
		t.Fatalf("bind wrong: %s", b.Dump(5))
	}
	if _, dense := b.Head.(*bat.DenseOids); !dense {
		t.Fatal("bind head should be dense without deletes")
	}
}

func TestDeleteTombstonesBind(t *testing.T) {
	_, tb := twoColTable(t)
	tb.Delete([]bat.Oid{1})
	if tb.NumRows() != 2 || !tb.HasDeletes() {
		t.Fatalf("rows = %d", tb.NumRows())
	}
	b := tb.MustColumn("o_orderkey").Bind()
	if b.Len() != 2 || bat.OidAt(b.Head, 1) != 2 {
		t.Fatalf("bind after delete wrong: %s", b.Dump(5))
	}
	// Deleting again or out of range is a no-op (no event).
	var events int
	tb.catalog.AddListener(countListener{n: &events})
	tb.Delete([]bat.Oid{1, 99})
	if events != 0 {
		t.Fatalf("duplicate delete fired %d events", events)
	}
}

// current returns column c at its table's current version.
func current(c *Column) colVersion { return c.Table.cur.Load().cols[c.pos] }

type countListener struct{ n *int }

func (c countListener) OnUpdate(Commit) { *c.n++ }

func TestAppendEventCarriesDeltas(t *testing.T) {
	c, tb := twoColTable(t)
	var got Commit
	c.AddListener(funcListener(func(cm Commit) { got = cm }))
	first := tb.Append([]Row{{"o_orderkey": int64(9), "o_total": 90.0}})
	if first != 3 {
		t.Fatalf("first oid = %d", first)
	}
	if got.Table != tb || got.Kind != CommitInsert || len(got.Inserts) != 2 || len(got.Deleted) != 0 {
		t.Fatalf("commit wrong: %+v", got)
	}
	if d := got.Inserts[0]; got.FirstOid != 3 || got.NumRows != 1 || d.Len() != 1 || d.Get(0) != int64(9) {
		t.Fatalf("delta wrong: first %d, %d rows, o_orderkey %v", got.FirstOid, got.NumRows, d)
	}
}

// funcListener is a catalog listener running itself on every commit.
type funcListener func(Commit)

func (f funcListener) OnUpdate(cm Commit) { f(cm) }

func TestKeyIndexAndLookup(t *testing.T) {
	_, tb := twoColTable(t)
	tb.DefineKeyIndex("o_orderkey")
	o, ok := tb.LookupKey("o_orderkey", 2)
	if !ok || o != 1 {
		t.Fatalf("lookup = %v, %v", o, ok)
	}
	tb.Delete([]bat.Oid{1})
	if _, ok := tb.LookupKey("o_orderkey", 2); ok {
		t.Fatal("lookup of deleted row should fail")
	}
	// Appends maintain the index.
	tb.Append([]Row{{"o_orderkey": int64(7), "o_total": 70.0}})
	o, ok = tb.LookupKey("o_orderkey", 7)
	if !ok || o != 3 {
		t.Fatalf("lookup after append = %v, %v", o, ok)
	}
}

func TestJoinIndex(t *testing.T) {
	c := New()
	orders := c.CreateTable("sys", "orders", []ColDef{{Name: "o_orderkey", Kind: bat.KInt}})
	orders.Append([]Row{
		{"o_orderkey": int64(100)},
		{"o_orderkey": int64(200)},
	})
	li := c.CreateTable("sys", "lineitem", []ColDef{{Name: "l_orderkey", Kind: bat.KInt}})
	li.Append([]Row{
		{"l_orderkey": int64(200)},
		{"l_orderkey": int64(100)},
		{"l_orderkey": int64(999)}, // dangling FK
	})
	li.DefineJoinIndex("li_fkey", "l_orderkey", orders, "o_orderkey")
	b := li.BindIdx("li_fkey")
	if b.Len() != 3 {
		t.Fatalf("idx len = %d", b.Len())
	}
	if bat.OidAt(b.Tail, 0) != 1 || bat.OidAt(b.Tail, 1) != 0 || bat.OidAt(b.Tail, 2) != bat.NilOid {
		t.Fatalf("join index wrong: %s", b.Dump(5))
	}
	// Incremental maintenance on append.
	li.Append([]Row{{"l_orderkey": int64(100)}})
	b = li.BindIdx("li_fkey")
	if b.Len() != 4 || bat.OidAt(b.Tail, 3) != 0 {
		t.Fatalf("join index after append wrong: %s", b.Dump(10))
	}
	// Tombstoned child rows are filtered.
	li.Delete([]bat.Oid{0})
	b = li.BindIdx("li_fkey")
	if b.Len() != 3 || bat.OidAt(b.Head, 0) != 1 {
		t.Fatalf("join index after delete wrong: %s", b.Dump(10))
	}
}

func TestDropTableNotifies(t *testing.T) {
	c, tb := twoColTable(t)
	var dropped *Table
	c.AddListener(funcListener(func(cm Commit) {
		if cm.Kind == CommitDrop {
			dropped = cm.Table
		}
	}))
	c.DropTable("sys", "orders")
	if dropped != tb || c.Table("sys", "orders") != nil {
		t.Fatal("drop did not notify or remove")
	}
}

func TestVersionBumps(t *testing.T) {
	_, tb := twoColTable(t)
	v := tb.cur.Load().stamp.Version
	tb.Append([]Row{{"o_orderkey": int64(4), "o_total": 1.0}})
	if tb.cur.Load().stamp.Version != v+1 {
		t.Fatalf("version = %d, want %d", tb.cur.Load().stamp.Version, v+1)
	}
	tb.Delete([]bat.Oid{0})
	if tb.cur.Load().stamp.Version != v+2 {
		t.Fatalf("version = %d, want %d", tb.cur.Load().stamp.Version, v+2)
	}
}

func TestTablesDeterministicOrder(t *testing.T) {
	c := New()
	c.CreateTable("sys", "b", nil)
	c.CreateTable("sys", "a", nil)
	ts := c.Tables()
	if len(ts) != 2 || ts[0].Name != "a" || ts[1].Name != "b" {
		t.Fatalf("tables order wrong: %v, %v", ts[0].Name, ts[1].Name)
	}
}

func TestSortedPropertyMaintained(t *testing.T) {
	c := New()
	tb := c.CreateTable("sys", "t", []ColDef{{Name: "k", Kind: bat.KInt, Sorted: true}})
	tb.Append([]Row{{"k": int64(1)}, {"k": int64(2)}})
	if !current(tb.MustColumn("k")).sorted {
		t.Fatal("sorted lost on ordered append")
	}
	tb.Append([]Row{{"k": int64(0)}})
	if current(tb.MustColumn("k")).sorted {
		t.Fatal("sorted kept on out-of-order append")
	}
}
