package catalog

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/algebra"
	"repro/internal/bat"
)

// dictValue is the string row oid o holds in TestDictGrowthConcurrent:
// one of five shared values, or, for every third row, one shared by the
// ten such rows among 30 oids, so appends grow the column's dictionary
// and then meet the values they added.
func dictValue(o bat.Oid) string {
	if o%3 == 0 {
		return fmt.Sprintf("n%d", o/30)
	}
	return fmt.Sprintf("v%d", o%5)
}

// TestDictGrowthConcurrent filters, groups and gathers a string column
// at pinned snapshots while commits append rows carrying new distinct
// strings and delete rows. Readers take no lock on the dictionary: each
// sees a prefix of it that reaches every code its version holds, and
// every kernel's answer must equal the one the row values dictate.
func TestDictGrowthConcurrent(t *testing.T) {
	const loaded = 300
	c := New()
	tb := c.CreateTable("sys", "d", []ColDef{{Name: "s", Kind: bat.KStr}})
	rows := func(first, n int) []Row {
		out := make([]Row, n)
		for i := range out {
			out[i] = Row{"s": dictValue(bat.Oid(first + i))}
		}
		return out
	}
	tb.Append(rows(0, loaded))
	col := tb.MustColumn("s")
	startDict := current(col).data.(*bat.Strings).D.Len()

	var wg sync.WaitGroup
	var rounds atomic.Int64
	done := make(chan struct{})
	errs := make(chan error, 4)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		rng := rand.New(rand.NewSource(70))
		n := loaded
		for i := 0; i < 80; i++ {
			for rounds.Load() < int64(2*i) && len(errs) == 0 {
				runtime.Gosched() // let the readers see every version
			}
			if i%4 == 3 {
				tb.Delete([]bat.Oid{bat.Oid(rng.Intn(n)), bat.Oid(rng.Intn(n))})
				continue
			}
			k := 1 + rng.Intn(30)
			tb.Append(rows(n, k))
			n += k
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for round, stop := 0, false; !stop; round++ {
				select {
				case <-done:
					stop = round >= 40
				default:
				}
				s, _ := c.Pin("sys.d")
				if err := checkDictBind(col.BindAt(s), rng); err != nil {
					errs <- err
					return
				}
				rounds.Add(1)
			}
		}(int64(71 + g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if grown := current(col).data.(*bat.Strings).D.Len(); grown <= startDict {
		t.Fatalf("the dictionary did not grow: %d values before the commits, %d after", startDict, grown)
	}
}

// checkDictBind checks one bind of the column against dictValue: its
// values, an equality and a LIKE filter, a grouping, and a gather of a
// random subset of its rows.
func checkDictBind(b *bat.BAT, rng *rand.Rand) error {
	heads := bat.MaterialiseOids(b.Head)
	for i, o := range heads {
		if got := b.Tail.Get(i); got != dictValue(o) {
			return fmt.Errorf("row %d (oid %d) reads %q, want %q", i, o, got, dictValue(o))
		}
	}
	want := fmt.Sprintf("v%d", rng.Intn(5))
	eq := algebra.Filter(b, algebra.Pred{Kind: algebra.PredEq, V: want})
	like := algebra.Filter(b, algebra.Pred{Kind: algebra.PredLike, Pattern: "n%"})
	var nEq, nLike int
	for _, o := range heads {
		switch v := dictValue(o); {
		case v == want:
			nEq++
		case strings.HasPrefix(v, "n"):
			nLike++
		}
	}
	if eq.Len() != nEq || like.Len() != nLike {
		return fmt.Errorf("%d rows: = %q kept %d, want %d; LIKE 'n%%' kept %d, want %d", len(heads), want, eq.Len(), nEq, like.Len(), nLike)
	}
	for i := 0; i < like.Len(); i++ {
		if o := bat.OidAt(like.Head, i); like.Tail.Get(i) != dictValue(o) {
			return fmt.Errorf("LIKE row %d (oid %d) reads %q", i, o, like.Tail.Get(i))
		}
	}
	g := algebra.GroupNew(b)
	ids := g.Grp.Tail.(*bat.Oids).V
	byID := make(map[bat.Oid]string)
	distinct := make(map[string]bool)
	for i, o := range heads {
		v := dictValue(o)
		distinct[v] = true
		if seen, ok := byID[ids[i]]; ok && seen != v {
			return fmt.Errorf("group %d holds %q and %q", ids[i], seen, v)
		}
		byID[ids[i]] = v
	}
	if g.NGroups != len(distinct) {
		return fmt.Errorf("%d groups, want %d", g.NGroups, len(distinct))
	}
	sel := make(bat.SelectionVector, 0, len(heads)/4)
	for i := range heads {
		if rng.Intn(4) == 0 {
			sel = append(sel, int32(i))
		}
	}
	gathered := bat.GatherSel(b, sel)
	for i := 0; i < gathered.Len(); i++ {
		if o := bat.OidAt(gathered.Head, i); gathered.Tail.Get(i) != dictValue(o) {
			return fmt.Errorf("gathered row %d (oid %d) reads %q", i, o, gathered.Tail.Get(i))
		}
	}
	return nil
}

// TestAppendWrongTypeLeavesDictionary appends a row whose string column
// is valid but whose next column has the wrong type: the append panics
// with the table untouched — its stamp too — no listener called, and
// the string column's dictionary has not grown by the value no row
// holds.
func TestAppendWrongTypeLeavesDictionary(t *testing.T) {
	c := New()
	tb := c.CreateTable("sys", "w", []ColDef{{Name: "s", Kind: bat.KStr}, {Name: "n", Kind: bat.KInt}})
	tb.Append([]Row{{"s": "a", "n": int64(1)}})
	d := current(tb.MustColumn("s")).data.(*bat.Strings).D
	before, _ := c.Pin("sys.w")
	var events int
	c.AddListener(countListener{n: &events})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("append of a wrong-typed value did not panic")
			}
		}()
		tb.Append([]Row{{"s": "new", "n": "not an int"}})
	}()
	if got := d.Values(); len(got) != 1 || got[0] != "a" {
		t.Fatalf("dictionary after the failed append = %q, want [a]", got)
	}
	if n := current(tb.MustColumn("s")).data.Len(); n != 1 {
		t.Fatalf("column length after the failed append = %d, want 1", n)
	}
	if after, _ := c.Pin("sys.w"); after.Stamp != before.Stamp {
		t.Fatalf("stamp after the failed append = %+v, want %+v", after.Stamp, before.Stamp)
	}
	if events != 0 {
		t.Fatalf("the failed append notified %d listeners", events)
	}
}
