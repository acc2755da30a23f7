package catalog

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/bat"
)

// storageTable bulk-loads n rows of (k = oid, s = "r<oid>", j = 0,
// u = oid) with a join index on j, so every storage path is in play:
// an int and a string column, the live-oid list once a row is deleted,
// the index. u is for a test to bind first whenever it wants to.
func storageTable(n int) (*Catalog, *Table) {
	c := New()
	parent := c.CreateTable("sys", "p", []ColDef{{Name: "pk", Kind: bat.KInt}})
	parent.Append([]Row{{"pk": int64(0)}})
	parent.DefineKeyIndex("pk")
	tb := c.CreateTable("sys", "t", []ColDef{
		{Name: "k", Kind: bat.KInt, Sorted: true},
		{Name: "s", Kind: bat.KStr},
		{Name: "j", Kind: bat.KInt},
		{Name: "u", Kind: bat.KInt},
	})
	tb.Append(storageRows(0, n))
	tb.DefineJoinIndex("fk", "j", parent, "pk")
	return c, tb
}

func storageRows(first, n int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{"k": int64(first + i), "s": fmt.Sprintf("r%d", first+i), "j": int64(0), "u": int64(first + i)}
	}
	return rows
}

// checkSnapshot verifies a bind of k, s or u taken when the table held
// the given live oids: length and every (head, value) pair.
func checkSnapshot(b *bat.BAT, live []bat.Oid) error {
	if b.Len() != len(live) {
		return fmt.Errorf("snapshot has %d rows, want %d", b.Len(), len(live))
	}
	for i, o := range live {
		if got := bat.OidAt(b.Head, i); got != o {
			return fmt.Errorf("row %d: head %d, want %d", i, got, o)
		}
		switch tail := b.Tail.(type) {
		case *bat.Ints:
			if tail.V[i] != int64(o) {
				return fmt.Errorf("row %d: k = %d, want %d", i, tail.V[i], o)
			}
		case *bat.Strings:
			if want := fmt.Sprintf("r%d", o); tail.At(i) != want {
				return fmt.Errorf("row %d: s = %q, want %q", i, tail.At(i), want)
			}
		}
	}
	return nil
}

// TestAppendKeepsPublishedSnapshots is the storage contract under
// -race: bind views (dense and tombstoned) and an exported state taken
// before a run of appends keep their length and every value while the
// appends write past the published length — through at least two
// capacity growths — and a reader goroutine scans the snapshots the
// whole time, binding a column of its own beside them. A bulk load
// leaves no slack behind.
func TestAppendKeepsPublishedSnapshots(t *testing.T) {
	const loaded = 256
	c, tb := storageTable(loaded)
	kData := func() []int64 { return current(tb.MustColumn("k")).data.(*bat.Ints).V }
	if v := kData(); cap(v) != len(v) {
		t.Fatalf("bulk load left slack: len %d cap %d", len(v), cap(v))
	}

	all := make([]bat.Oid, loaded)
	for i := range all {
		all[i] = bat.Oid(i)
	}
	dense := []*bat.BAT{tb.MustColumn("k").Bind(), tb.MustColumn("s").Bind()}
	tb.Delete([]bat.Oid{7, 100})
	live := append(append(append([]bat.Oid(nil), all[:7]...), all[8:100]...), all[101:]...)
	tomb := []*bat.BAT{tb.MustColumn("k").Bind(), tb.MustColumn("s").Bind()}
	idx := tb.BindIdx("fk")
	exported, _ := c.ExportState()
	var state TableState
	for _, ts := range exported {
		if ts.Name == "t" {
			state = ts
		}
	}
	check := func() error {
		for _, b := range dense {
			if err := checkSnapshot(b, all); err != nil {
				return fmt.Errorf("dense bind: %w", err)
			}
		}
		for _, b := range tomb {
			if err := checkSnapshot(b, live); err != nil {
				return fmt.Errorf("tombstoned bind: %w", err)
			}
		}
		if idx.Len() != len(live) {
			return fmt.Errorf("join index bind has %d rows, want %d", idx.Len(), len(live))
		}
		if state.NRows != loaded || len(state.Deleted) != 2 {
			return fmt.Errorf("exported state: %d rows, %d tombstones", state.NRows, len(state.Deleted))
		}
		for i, v := range state.Data {
			if v.Len() != loaded {
				return fmt.Errorf("exported column %d has %d values, want %d", i, v.Len(), loaded)
			}
		}
		return checkSnapshot(bat.NewDenseHead(state.Data[0]), all)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			err := check()
			if err == nil {
				// A bind of its own, racing the commits: u's first bind under
				// tombstones builds its live tail while deletes replace it.
				b := tb.MustColumn("u").Bind()
				err = checkSnapshot(b, bat.MaterialiseOids(b.Head))
			}
			if err != nil {
				t.Error(err)
				return
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	growths, lastCap := 0, cap(kData())
	for n := loaded; growths < 3; n++ {
		tb.Append(storageRows(n, 1))
		if n%17 == 0 {
			tb.Delete([]bat.Oid{bat.Oid(n)})
		}
		if c := cap(kData()); c != lastCap {
			growths, lastCap = growths+1, c
		}
	}
	close(stop)
	wg.Wait()
	if err := check(); err != nil {
		t.Fatal(err)
	}

	// What the appends published is all there, in order, for new binds.
	n := len(kData())
	var now []bat.Oid
	for o := 0; o < n; o++ {
		if o == 7 || o == 100 || (o >= loaded && o%17 == 0) {
			continue
		}
		now = append(now, bat.Oid(o))
	}
	for _, col := range []string{"k", "s", "u"} {
		if err := checkSnapshot(tb.MustColumn(col).Bind(), now); err != nil {
			t.Fatalf("bind of %s after the appends: %v", col, err)
		}
	}
	if got := tb.BindIdx("fk").Len(); got != len(now) {
		t.Fatalf("join index bind after the appends has %d rows, want %d", got, len(now))
	}
	if !current(tb.MustColumn("k")).sorted {
		t.Fatal("ascending appends cleared the sorted flag")
	}
	if slack := cap(kData()) - n; slack > n/8 {
		t.Fatalf("column carries %d slots of slack for %d rows: growth is not a bounded step", slack, n)
	}
}

// TestBindUnderTombstonesCopiesOnce pins the live tail: the first bind
// of a column over a tombstoned table copies it, every later bind —
// across appends, which extend the tail in place — is a view of the
// same storage, a delete makes one new copy, and an unbound column
// never gets one.
func TestBindUnderTombstonesCopiesOnce(t *testing.T) {
	_, tb := storageTable(64)
	k := tb.MustColumn("k")
	tb.Delete([]bat.Oid{2, 5})
	if tb.cur.Load().tomb.tails[k.pos].load() != nil {
		t.Fatal("a delete built the live tail of a column nobody bound")
	}
	first := func(b *bat.BAT) *int64 { return &b.Tail.(*bat.Ints).V[0] }
	b1 := k.Bind()
	tb.Append(storageRows(64, 1))
	b2 := k.Bind()
	tb.Append(storageRows(65, 1))
	b3 := k.Bind()
	if first(b1) != first(b2) || first(b2) != first(b3) {
		t.Fatal("an append with room moved the live tail")
	}
	if b1.Len() != 62 || b2.Len() != 63 || b3.Len() != 64 || b3.Tail.Get(63) != int64(65) {
		t.Fatalf("bind lengths %d %d %d", b1.Len(), b2.Len(), b3.Len())
	}
	if b3.Tail.ByteSize() >= 64*8 || !b3.HeadSorted || !b3.KeyUnique || !b3.TailSorted {
		t.Fatalf("a bind under tombstones must be an accounted-as-view, sorted, keyed BAT: %d bytes", b3.Tail.ByteSize())
	}
	tb.Delete([]bat.Oid{64})
	b4 := k.Bind()
	if first(b4) == first(b3) || b4.Len() != 63 || b3.Len() != 64 {
		t.Fatal("a delete must replace the live tail, not edit it")
	}
	if tb.cur.Load().tomb.tails[tb.MustColumn("s").pos].load() != nil {
		t.Fatal("commits built the live tail of a column nobody bound")
	}
}

// TestDeleteDropsLiveTails: a delete drops the live-oid list and every
// live tail instead of rebuilding them, so it copies no column; the
// next bind of each column — one that had a tail and one that never
// had — builds them without the dead row, and a bind taken before the
// delete keeps its rows.
func TestDeleteDropsLiveTails(t *testing.T) {
	_, tb := storageTable(16)
	tb.Delete([]bat.Oid{3})
	stale := tb.MustColumn("k").Bind() // k has a live tail going in, u none
	tb.Delete([]bat.Oid{9})
	if tb.cur.Load().tomb.live.load() != nil || tb.cur.Load().tomb.tails[tb.MustColumn("k").pos].load() != nil {
		t.Fatal("the delete rebuilt the live oids or k's live tail")
	}

	live := []bat.Oid{0, 1, 2, 4, 5, 6, 7, 8, 10, 11, 12, 13, 14, 15}
	for _, col := range []string{"k", "u"} {
		if err := checkSnapshot(tb.MustColumn(col).Bind(), live); err != nil {
			t.Fatalf("bind of %s after the delete: %v", col, err)
		}
	}
	if err := checkSnapshot(stale, append(live[:8:8], append([]bat.Oid{9}, live[8:]...)...)); err != nil {
		t.Fatalf("the bind taken before the delete: %v", err)
	}
}

// TestPinnedSnapshotsSurviveCommits: a snapshot pinned before a run of
// deletes and appends keeps reading its version — every column, the
// join index, dense and tombstoned — while binds of the current
// version see each commit; a snapshot pinned before a delete copies
// its tail once, one pinned before an append only keeps a prefix.
func TestPinnedSnapshotsSurviveCommits(t *testing.T) {
	c, tb := storageTable(16)
	dense, ok := c.Pin("sys.t")
	if !ok {
		t.Fatal("pin of a live table failed")
	}
	if _, ok := c.Pin("sys.nope"); ok {
		t.Fatal("pin of a missing table succeeded")
	}
	tb.MustColumn("k").Bind() // k carries a live tail through the deletes, s does not
	tb.Delete([]bat.Oid{3, 7})
	tomb, _ := c.Pin("sys.t")
	tb.Append(storageRows(16, 2))
	tb.Delete([]bat.Oid{0})
	if dense.Stamp == tomb.Stamp || tomb.Stamp.Version != dense.Stamp.Version+1 {
		t.Fatalf("stamps %+v then %+v", dense.Stamp, tomb.Stamp)
	}

	seq := func(lo, hi int, skip ...bat.Oid) []bat.Oid {
		var out []bat.Oid
		for o := bat.Oid(lo); o < bat.Oid(hi); o++ {
			if !slices.Contains(skip, o) {
				out = append(out, o)
			}
		}
		return out
	}
	for _, tc := range []struct {
		name string
		s    Snapshot
		live []bat.Oid
	}{
		{"dense", dense, seq(0, 16)},
		{"tombstoned", tomb, seq(0, 16, 3, 7)},
	} {
		for _, col := range []string{"k", "s"} {
			if err := checkSnapshot(tb.MustColumn(col).BindAt(tc.s), tc.live); err != nil {
				t.Fatalf("%s bind of %s: %v", tc.name, col, err)
			}
		}
		if idx := tb.BindIdxAt(tc.s, "fk"); idx.Len() != len(tc.live) || bat.OidAt(idx.Head, idx.Len()-1) != tc.live[len(tc.live)-1] {
			t.Fatalf("%s join index has %d rows", tc.name, idx.Len())
		}
	}
	if err := checkSnapshot(tb.MustColumn("k").Bind(), seq(1, 18, 3, 7)); err != nil {
		t.Fatalf("current bind: %v", err)
	}

	// With no delete since the pin, the pinned bind shares the current
	// live tail's storage instead of copying it.
	pinned, _ := c.Pin("sys.t")
	tb.Append(storageRows(18, 1))
	first := func(b *bat.BAT) *int64 { return &b.Tail.(*bat.Ints).V[0] }
	old, cur := tb.MustColumn("k").BindAt(pinned), tb.MustColumn("k").Bind()
	if first(old) != first(cur) || old.Len() != cur.Len()-1 {
		t.Fatalf("append-only straddle copied the tail: %d vs %d rows", old.Len(), cur.Len())
	}
}
