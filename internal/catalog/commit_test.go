package catalog_test

import (
	"testing"

	"repro/internal/bat"
	"repro/internal/catalog"
	"repro/internal/mal"
	"repro/internal/opt"
	"repro/internal/recycler"
)

// commits is a catalog listener recording every commit it is handed.
type commits []catalog.Commit

func (c *commits) OnUpdate(cm catalog.Commit) { *c = append(*c, cm) }

func pairTable(c *catalog.Catalog) *catalog.Table {
	return c.CreateTable("sys", "t", []catalog.ColDef{{Name: "v", Kind: bat.KInt}, {Name: "s", Kind: bat.KStr}})
}

// TestHookAndListenersShareOneCommit: an insert and a delete each reach
// the commit hook and every listener as one value — the same sequence
// number, the same insert vectors (one backing array) and the same
// deleted oids — carrying the version the statement published.
func TestHookAndListenersShareOneCommit(t *testing.T) {
	c := catalog.New()
	tb := pairTable(c)
	var hook, l1, l2 commits
	c.SetCommitHook(func(cm catalog.Commit) { hook = append(hook, cm) })
	c.AddListener(&l1)
	c.AddListener(&l2)
	if _, err := tb.AppendColumns([]bat.Vector{bat.NewInts([]int64{1, 2}), bat.NewStrings([]string{"a", "b"})}); err != nil {
		t.Fatal(err)
	}
	tb.Delete([]bat.Oid{1})
	if len(hook) != 2 || len(l1) != 2 || len(l2) != 2 {
		t.Fatalf("hook got %d commits, listeners %d and %d, want 2 each", len(hook), len(l1), len(l2))
	}
	for i, kind := range []catalog.CommitKind{catalog.CommitInsert, catalog.CommitDelete} {
		h := hook[i]
		if h.Kind != kind || h.Table != tb || h.Schema != "sys" || h.Name != "t" {
			t.Fatalf("commit %d: kind %d on %s.%s, want kind %d on sys.t", i, h.Kind, h.Schema, h.Name, kind)
		}
		if pin, _ := c.Pin("sys.t"); i == 1 && h.Stamp != pin.Stamp {
			t.Fatalf("the delete carries version %+v, the table is at %+v", h.Stamp, pin.Stamp)
		}
		for _, l := range []catalog.Commit{l1[i], l2[i]} {
			if l.Seq != h.Seq || l.Kind != h.Kind || l.Stamp != h.Stamp || l.Table != h.Table ||
				l.FirstOid != h.FirstOid || l.NumRows != h.NumRows || len(l.Inserts) != len(h.Inserts) || len(l.Deleted) != len(h.Deleted) {
				t.Fatalf("commit %d: a listener got %+v, the hook %+v", i, l, h)
			}
			if len(h.Inserts) > 0 && &l.Inserts[0] != &h.Inserts[0] {
				t.Fatalf("commit %d: a listener's insert vectors are not the hook's", i)
			}
			for j := range h.Inserts {
				if l.Inserts[j] != h.Inserts[j] {
					t.Fatalf("commit %d: column %d's vector differs", i, j)
				}
			}
			if len(h.Deleted) > 0 && &l.Deleted[0] != &h.Deleted[0] {
				t.Fatalf("commit %d: a listener's deleted oids are not the hook's", i)
			}
		}
	}
	if ins := hook[0]; ins.FirstOid != 0 || ins.NumRows != 2 || ins.Inserts[0].Get(1) != int64(2) || ins.Inserts[1].Get(0) != "a" {
		t.Fatalf("insert delta wrong: first %d, %d rows, %v %v", ins.FirstOid, ins.NumRows, ins.Inserts[0], ins.Inserts[1])
	}
	if del := hook[1]; len(del.Deleted) != 1 || del.Deleted[0] != 1 || del.Seq != hook[0].Seq+1 {
		t.Fatalf("delete wrong: %+v", del)
	}
}

// TestDropDeliversOneCommit: DropTable hands the hook and each listener
// exactly one CommitDrop, carrying the dropped table, and a recycler
// invalidates the table's entries through it.
func TestDropDeliversOneCommit(t *testing.T) {
	c := catalog.New()
	tb := pairTable(c)
	tb.Append([]catalog.Row{{"v": int64(1), "s": "a"}, {"v": int64(5), "s": "b"}})
	rec := recycler.New(c, recycler.Config{Admission: recycler.KeepAll})
	defer rec.Close()
	var hook, l commits
	c.SetCommitHook(func(cm catalog.Commit) { hook = append(hook, cm) })
	c.AddListener(&l)

	b := mal.NewBuilder("count")
	x := b.Op1("sql", "bind", mal.C(mal.StrV("sys")), mal.C(mal.StrV("t")), mal.C(mal.StrV("v")), mal.C(mal.IntV(0)))
	x = b.Op1("algebra", "select", x, mal.C(mal.IntV(0)), mal.C(mal.IntV(3)), mal.C(mal.BoolV(true)), mal.C(mal.BoolV(true)))
	b.Do("sql", "exportValue", mal.C(mal.StrV("n")), b.Op1("aggr", "count", x))
	tmpl := opt.Optimize(b.Freeze(), opt.Options{})
	rec.BeginQuery(1, tmpl.ID)
	err := mal.Run(&mal.Ctx{Cat: c, Hook: rec, QueryID: 1}, tmpl)
	rec.EndQuery(1)
	if err != nil {
		t.Fatal(err)
	}
	pooled := rec.PoolLen()
	if pooled == 0 {
		t.Fatal("the query pooled nothing")
	}

	c.DropTable("sys", "t")
	c.DropTable("sys", "t") // gone: no second commit
	for name, got := range map[string]commits{"hook": hook, "listener": l} {
		if len(got) != 1 || got[0].Kind != catalog.CommitDrop || got[0].Table != tb || got[0].Name != "t" {
			t.Fatalf("the %s got %+v, want one CommitDrop of sys.t", name, got)
		}
	}
	if hook[0].Seq != l[0].Seq {
		t.Fatalf("the hook's drop is commit %d, the listener's %d", hook[0].Seq, l[0].Seq)
	}
	if n, inval := rec.PoolLen(), rec.Snapshot().Invalidated; n != 0 || inval != int64(pooled) {
		t.Fatalf("after the drop the pool holds %d entries and invalidated %d, want 0 and %d", n, inval, pooled)
	}
}

// TestFailedAppendDeliversNothing: an AppendColumns refused for its
// input reaches neither the hook nor any listener.
func TestFailedAppendDeliversNothing(t *testing.T) {
	c := catalog.New()
	tb := pairTable(c)
	var hook, l commits
	c.SetCommitHook(func(cm catalog.Commit) { hook = append(hook, cm) })
	c.AddListener(&l)
	if _, err := tb.AppendColumns([]bat.Vector{bat.NewFloats([]float64{1}), bat.NewStrings([]string{"a"})}); err == nil {
		t.Fatal("an append of floats into an int column succeeded")
	}
	if len(hook) != 0 || len(l) != 0 {
		t.Fatalf("a failed append delivered %d commits to the hook and %d to a listener", len(hook), len(l))
	}
}
