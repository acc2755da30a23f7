package recycler

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/bat"
	"repro/internal/catalog"
	"repro/internal/mal"
	"repro/internal/plan"
)

// mkEntry builds a synthetic pool entry for unit-testing pool
// mechanics without the interpreter.
func mkEntry(sig string, bytes int64, cost time.Duration) *Entry {
	return &Entry{
		Sig:    sig,
		OpName: "algebra.select",
		Result: mal.BatV(bat.NewDenseHead(bat.NewInts(make([]int64, bytes/8)))),
		Bytes:  bytes,
		Tuples: int(bytes / 8),
		Cost:   cost,
	}
}

// stampOver returns a stamp over table, since version 0, making the
// table's list at version 0 when p has none.
func stampOver(p *Pool, table string) tableStamp {
	l := p.tables[table]
	if l == nil {
		l = p.addTable(table, catalog.Stamp{})
	}
	return tableStamp{l: l}
}

// entriesOver returns the entries stamped with table, in id order, as
// its list holds them: a nil slot is a hole.
func (p *Pool) entriesOver(table string) []*Entry {
	if l := p.tables[table]; l != nil {
		return l.entries
	}
	return nil
}

// pinsAt is a Pins over fixed table versions. Entries without stamps
// (every mkEntry) are current for any pins, pinsAt(nil) included.
type pinsAt map[string]catalog.Stamp

func (p pinsAt) Pin(qname string) (catalog.Snapshot, bool) {
	s, ok := p[qname]
	return catalog.Snapshot{Stamp: s}, ok
}

func TestPoolAddRemoveAccounting(t *testing.T) {
	p := NewPool()
	e1 := mkEntry("a", 800, time.Millisecond)
	p.Add(e1)
	if p.Len() != 1 || p.Bytes() != 800 {
		t.Fatalf("after add: %d entries, %d bytes", p.Len(), p.Bytes())
	}
	if p.Lookup("a", pinsAt(nil)) != e1 || e1.Result.Prov != e1.ID {
		t.Fatal("lookup/provenance wrong")
	}
	p.Remove(e1)
	if p.Len() != 0 || p.Bytes() != 0 || p.Lookup("a", pinsAt(nil)) != nil {
		t.Fatal("remove incomplete")
	}
	// Double remove is a no-op.
	p.Remove(e1)
	if p.Evicted != 1 {
		t.Fatalf("evicted = %d", p.Evicted)
	}
}

func TestPoolLineageDependents(t *testing.T) {
	p := NewPool()
	parent := mkEntry("p", 100, time.Millisecond)
	p.Add(parent)
	child := mkEntry("c", 100, time.Millisecond)
	child.DependsOn = []uint64{parent.ID}
	p.Add(child)

	if len(p.frontier) != 1 || p.frontier[0] != child {
		t.Fatalf("frontier = %v", p.frontier)
	}
	p.Remove(child)
	if len(p.frontier) != 1 || p.frontier[0] != parent {
		t.Fatal("parent did not become leaf after child eviction")
	}
}

func TestPickVictimsPassesOverPinnedLeaves(t *testing.T) {
	r := New(nil, Config{})
	e := mkEntry("a", 100, time.Millisecond)
	r.pool.Add(e)
	e.pinnedQuery.Store(7)
	if len(r.pickVictims(100, nil, []uint64{7})) != 0 {
		t.Fatal("pinned leaf not excluded")
	}
	if len(r.pool.frontier) != 1 {
		t.Fatal("passed-over leaf did not return to the frontier")
	}
	if v := r.pickVictims(100, nil, []uint64{8}); len(v) != 1 || v[0] != e {
		t.Fatal("a leaf pinned by a finished query must be evictable")
	}
	r.pool.pushLeaf(e)
	if len(r.pickVictims(100, []uint64{e.ID}, nil)) != 0 {
		t.Fatal("protected leaf not excluded")
	}
	if len(r.pickVictims(100, nil, nil)) != 1 {
		t.Fatal("lifting the pins must include pinned entries (footnote-3 path)")
	}
}

func TestWeightAndBenefit(t *testing.T) {
	e := mkEntry("a", 100, 10*time.Millisecond)
	if e.Weight() != 0.1 {
		t.Fatalf("unused weight = %v, want 0.1", e.Weight())
	}
	e.ReuseCount.Store(3)
	// Local-only reuse keeps the minimal weight (paper Eq. 2).
	if e.Weight() != 0.1 {
		t.Fatalf("local-only weight = %v, want 0.1", e.Weight())
	}
	e.GlobalReuse.Store(true)
	if e.Weight() != 3 {
		t.Fatalf("global weight = %v, want 3", e.Weight())
	}
	if e.Benefit() != float64(10*time.Millisecond)*3 {
		t.Fatalf("benefit = %v", e.Benefit())
	}
	e.AdmitTick = 5
	hb := e.HistoryBenefit(15)
	if hb != e.Benefit()/10 {
		t.Fatalf("history benefit = %v", hb)
	}
	// Zero/negative age clamps to 1.
	if e.HistoryBenefit(5) != e.Benefit() {
		t.Fatal("age clamp failed")
	}
}

// TestPoolEntriesOverTable: the commit walk's and drop's lookup finds
// exactly the live entries stamped with the table, in id order, with
// holes where entries were removed.
func TestPoolEntriesOverTable(t *testing.T) {
	p := NewPool()
	stamped := func(sig string, tables ...string) *Entry {
		e := mkEntry(sig, 100, time.Millisecond)
		for _, tb := range tables {
			e.stamps = append(e.stamps, stampOver(p, tb))
		}
		p.Add(e)
		return e
	}
	tv := stamped("a", "sys.t")
	uv := stamped("b", "sys.u")
	both := stamped("c", "sys.u", "sys.t")
	none := stamped("d")
	ids := func(es []*Entry) []uint64 {
		var out []uint64
		for _, e := range es {
			if e != nil {
				out = append(out, e.ID)
			}
		}
		return out
	}
	if got, want := ids(p.entriesOver("sys.t")), []uint64{tv.ID, both.ID}; !slices.Equal(got, want) {
		t.Fatalf("over sys.t: %v, want %v", got, want)
	}
	if got, want := ids(p.entriesOver("sys.u")), []uint64{uv.ID, both.ID}; !slices.Equal(got, want) {
		t.Fatalf("over sys.u: %v, want %v", got, want)
	}
	p.Remove(tv)
	p.Remove(none)
	if got, want := ids(p.entriesOver("sys.t")), []uint64{both.ID}; !slices.Equal(got, want) {
		t.Fatalf("over sys.t after removal: %v, want %v", got, want)
	}
	if got := p.entriesOver("sys.v"); len(got) != 0 {
		t.Fatalf("over an unread table: %v", ids(got))
	}
}

// TestPoolTableLists: over a seeded interleaving of Add and Remove
// across three tables, some entries over two of them, each table's
// list with its holes skipped is, after every step, exactly the pool's
// entries that read the table, in id order; its id column is ascending
// and agrees with every slot; its hole count is right and at most half
// of it.
func TestPoolTableLists(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	p := NewPool()
	tables := []string{"sys.a", "sys.b", "sys.c"}
	var live []*Entry
	for step := 0; step < 3000; step++ {
		if len(live) == 0 || rng.Intn(9) < 5 {
			e := mkEntry(fmt.Sprint("e", step), 8, time.Microsecond)
			e.stamps = []tableStamp{stampOver(p, tables[rng.Intn(len(tables))])}
			if s := stampOver(p, tables[rng.Intn(len(tables))]); rng.Intn(3) == 0 && s.l != e.stamps[0].l {
				e.stamps = append(e.stamps, s)
			}
			p.Add(e)
			live = append(live, e)
		} else {
			i := rng.Intn(len(live))
			p.Remove(live[i])
			live = slices.Delete(live, i, i+1)
		}
		for _, tb := range tables {
			var got, want []uint64
			holes := 0
			for _, e := range p.entriesOver(tb) {
				if e == nil {
					holes++
					continue
				}
				got = append(got, e.ID)
			}
			for _, e := range p.All() {
				if e.Reads(tb) {
					want = append(want, e.ID)
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("step %d: list of %s holds %v, the pool %v", step, tb, got, want)
			}
			l := p.tables[tb]
			if l == nil {
				continue
			}
			if l.holes != holes || 2*holes > len(l.entries) {
				t.Fatalf("step %d: list of %s has %d holes in %d slots, counts %d", step, tb, holes, len(l.entries), l.holes)
			}
			if len(l.ids) != len(l.entries) || !slices.IsSorted(l.ids) {
				t.Fatalf("step %d: list of %s: id column %v over %d slots", step, tb, l.ids, len(l.entries))
			}
			for i, e := range l.entries {
				if e != nil && e.ID != l.ids[i] {
					t.Fatalf("step %d: list of %s: slot %d holds e%d, its id column says %d", step, tb, i, e.ID, l.ids[i])
				}
			}
		}
	}
}

// TestPoolRemovedEntryCollectable: removing an entry clears its slot in
// every list it is in at once, so nothing in the pool keeps the entry —
// and the result it holds — reachable.
func TestPoolRemovedEntryCollectable(t *testing.T) {
	p := NewPool()
	over := func(sig string) *Entry {
		e := mkEntry(sig, 1<<20, time.Microsecond)
		e.stamps = []tableStamp{stampOver(p, "sys.a"), stampOver(p, "sys.b")}
		p.Add(e)
		return e
	}
	for i := 0; i < 4; i++ {
		over(fmt.Sprint("keep", i)) // the lists stay long enough not to compact
	}
	collected := make(chan struct{})
	func() {
		e := over("gone")
		runtime.AddCleanup(e, func(c chan struct{}) { close(c) }, collected)
		p.Remove(e)
	}()
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-collected:
			if n := len(p.entriesOver("sys.a")); n != 5 {
				t.Fatalf("the removal compacted the list to %d slots; the test needs a hole", n)
			}
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("a removed entry stays reachable from the pool")
}

func TestPoolSubsumptionIndexes(t *testing.T) {
	p := NewPool()
	sel := mkEntry("s", 100, time.Millisecond)
	sel.IsRangeSelect = true
	sel.SelColKey = "e1"
	p.Add(sel)
	if got := p.SelectOverlaps("e1", algebra.Range{}, pinsAt(nil)); len(got) != 1 {
		t.Fatalf("select candidates = %d", len(got))
	}
	like := mkEntry("l", 100, time.Millisecond)
	like.IsLike = true
	like.LikeColKey = "e1"
	p.Add(like)
	if got := p.LikeCandidates("e1", pinsAt(nil)); len(got) != 1 {
		t.Fatalf("like candidates = %d", len(got))
	}
	semi := mkEntry("sj", 100, time.Millisecond)
	semi.IsSemijoin = true
	semi.SemiLeft, semi.SemiRight = 42, 43
	p.Add(semi)
	if p.SemijoinOver(42, 43, pinsAt(nil)) != semi {
		t.Fatal("semijoin not indexed")
	}
	p.Remove(sel)
	p.Remove(like)
	p.Remove(semi)
	if len(p.SelectOverlaps("e1", algebra.Range{}, pinsAt(nil)))+len(p.LikeCandidates("e1", pinsAt(nil))) != 0 || p.SemijoinOver(42, 43, pinsAt(nil)) != nil {
		t.Fatal("indexes not cleaned on removal")
	}
	if len(p.selIdx)+len(p.likeIdx)+len(p.semiIdx) != 0 {
		t.Fatal("emptied index keys not dropped")
	}
}

func TestPoolTickMonotonic(t *testing.T) {
	p := NewPool()
	a := p.Tick()
	b := p.Tick()
	if b <= a || p.Now() != b {
		t.Fatal("virtual clock broken")
	}
}

func TestPoolDumpFormat(t *testing.T) {
	p := NewPool()
	e := mkEntry("algebra.select(e1,i3,i7)", 100, time.Millisecond)
	e.Args = []mal.Value{{Kind: mal.VBat, Prov: 1}, mal.IntV(3), mal.IntV(7)}
	p.Add(e)
	d := p.Dump()
	if !strings.Contains(d, "algebra.select(e1,3,7)") || !strings.Contains(d, "entries=1") {
		t.Fatalf("dump = %s", d)
	}
}

func TestTypeBreakdownAverages(t *testing.T) {
	p := NewPool()
	e1 := mkEntry("a", 100, 10*time.Millisecond)
	e2 := mkEntry("b", 100, 20*time.Millisecond)
	e2.ReuseCount.Store(2)
	e2.SavedTotal.Store(int64(40 * time.Millisecond))
	p.Add(e1)
	p.Add(e2)
	rows := p.TypeBreakdown()
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.Lines != 2 || r.AvgCost != 15*time.Millisecond {
		t.Fatalf("row = %+v", r)
	}
	if r.ReusedLines != 1 || r.Reuses != 2 || r.AvgSaved != 20*time.Millisecond {
		t.Fatalf("reuse stats = %+v", r)
	}
}

// TestSignatureDerivesFromPlanPackage pins the recycler's identity
// derivation to the plan package: the key admission pools an entry
// under is plan.AppendKey's, the key Entry probes with, and
// un-provenanced BAT operands are unmatchable. (Rendering/truncation
// behaviour is tested where it lives, in internal/plan.)
func TestSignatureDerivesFromPlanPackage(t *testing.T) {
	in := &mal.Instr{Module: "algebra", Op: "select"}
	v := mal.BatV(bat.NewDenseHead(bat.NewInts([]int64{1})))
	if _, matchable := poolKey(in, []mal.Value{v}); matchable {
		t.Fatal("bat arg without provenance must be unmatchable")
	}
	v.Prov = 3
	args := []mal.Value{v, mal.IntV(7)}
	key, matchable := poolKey(in, args)
	if !matchable || key != "algebra.select(e3,i7)" {
		t.Fatalf("key = %q, matchable = %v", key, matchable)
	}
	if probe, _ := plan.AppendKey(nil, in.Name(), args); string(probe) != key {
		t.Fatalf("admission key %q must be the probe's own encoding %q", key, probe)
	}
}

func TestRangeContains(t *testing.T) {
	cases := []struct {
		cLo, cHi any
		cIL, cIH bool
		tLo, tHi any
		tIL, tIH bool
		want     bool
	}{
		{int64(0), int64(10), true, true, int64(2), int64(8), true, true, true},
		{int64(0), int64(10), true, true, int64(0), int64(10), true, true, true},
		{int64(0), int64(10), false, true, int64(0), int64(10), true, true, false}, // open lo vs closed lo
		{int64(2), int64(10), true, true, int64(0), int64(10), true, true, false},
		{nil, int64(10), true, true, int64(0), int64(10), true, true, true}, // unbounded candidate lo
		{int64(0), nil, true, true, int64(0), int64(10), true, true, true},
		{int64(0), int64(10), true, true, nil, int64(8), true, true, false}, // unbounded target lo
		{int64(0), int64(10), true, false, int64(1), int64(10), true, false, true},
	}
	for i, c := range cases {
		got := algebra.Range{Lo: c.cLo, Hi: c.cHi, IncLo: c.cIL, IncHi: c.cIH}.Contains(algebra.Range{Lo: c.tLo, Hi: c.tHi, IncLo: c.tIL, IncHi: c.tIH})
		if got != c.want {
			t.Errorf("case %d: got %v, want %v", i, got, c.want)
		}
	}
}

func TestRangesOverlap(t *testing.T) {
	rangesOverlap := func(aLo, aHi, bLo, bHi any) bool {
		return algebra.Range{Lo: aLo, Hi: aHi}.Overlaps(algebra.Range{Lo: bLo, Hi: bHi})
	}
	if !rangesOverlap(int64(0), int64(5), int64(5), int64(9)) {
		t.Fatal("touching ranges overlap")
	}
	if rangesOverlap(int64(0), int64(4), int64(5), int64(9)) {
		t.Fatal("disjoint ranges must not overlap")
	}
	if !rangesOverlap(nil, nil, int64(5), int64(9)) {
		t.Fatal("unbounded overlaps everything")
	}
}

func TestSmallestSemijoinFollowsChainsAndRanges(t *testing.T) {
	p := NewPool()
	r := &Recycler{pool: p, cfg: Config{}, adm: newAdmission(KeepAll, 0)}
	const x = 77 // provenance of the left operand
	semiOver := func(right *Entry) *Entry {
		sj := mkEntry("sj-"+right.Sig, 10, time.Millisecond)
		sj.IsSemijoin, sj.SemiLeft, sj.SemiRight = true, x, right.ID
		p.Add(sj)
		return sj
	}
	a := mkEntry("a", 10, time.Millisecond)
	p.Add(a)
	b := mkEntry("b", 10, time.Millisecond)
	b.SubsetOf = a.ID
	p.Add(b)
	c := mkEntry("c", 10, time.Millisecond)
	c.SubsetOf = b.ID
	p.Add(c)
	sjA, sjC := semiOver(a), semiOver(c)
	if got := r.smallestSemijoin(pinsAt(nil), x, c.ID); got != sjA {
		t.Fatalf("transitive derivation chain not followed: got %v", got)
	}
	if got := r.smallestSemijoin(pinsAt(nil), x, a.ID); got != nil {
		t.Fatalf("reverse direction must fail: got %v (sjC = e%d)", got, sjC.ID)
	}
	// Range-based subset: two selects over the same column.
	sel := func(sig string, lo, hi int64) *Entry {
		e := mkEntry(sig, 10, time.Millisecond)
		e.IsRangeSelect, e.SelColKey = true, "e9"
		e.Sel = algebra.Range{Lo: lo, Hi: hi, IncLo: true, IncHi: true}
		p.Add(e)
		return e
	}
	s1, s2 := sel("s1", 0, 100), sel("s2", 10, 20)
	sj1, sj2 := semiOver(s1), semiOver(s2)
	if got := r.smallestSemijoin(pinsAt(nil), x, s2.ID); got != sj1 {
		t.Fatalf("range containment subset not detected: got %v", got)
	}
	if got := r.smallestSemijoin(pinsAt(nil), x, s1.ID); got != nil {
		t.Fatalf("superset direction must fail: got %v (sj2 = e%d)", got, sj2.ID)
	}
}

func TestAdmissionRefund(t *testing.T) {
	a := newAdmission(Credit, 1)
	k := instrKey{templ: 1, pc: 2}
	if !a.admit(k) {
		t.Fatal("first admit should pass")
	}
	if a.admit(k) {
		t.Fatal("credit exhausted")
	}
	a.refund(k)
	if !a.admit(k) {
		t.Fatal("refund did not restore the credit")
	}
}

func TestAdmissionKindString(t *testing.T) {
	if KeepAll.String() != "keepall" || Credit.String() != "crd" || Adapt.String() != "adapt" {
		t.Fatal("admission names wrong")
	}
	if EvictLRU.String() != "lru" || EvictBP.String() != "bp" || EvictHP.String() != "hp" {
		t.Fatal("eviction names wrong")
	}
}

func TestSnapshot(t *testing.T) {
	f := newFixtureQuiet(Config{Admission: KeepAll})
	tmpl := selectCountTemplate()
	f.runQuiet(tmpl, mal.IntV(10), mal.IntV(20))
	f.runQuiet(tmpl, mal.IntV(10), mal.IntV(20))
	s := f.rec.Snapshot()
	if s.Entries == 0 || s.Bytes == 0 || s.Admitted == 0 {
		t.Fatalf("snapshot empty: %+v", s)
	}
	if s.ReusedEntries == 0 || s.ReusedBytes == 0 {
		t.Fatalf("reuse missing: %+v", s)
	}
	f.rec.Reset()
	s = f.rec.Snapshot()
	if s.Entries != 0 || s.Bytes != 0 || s.Evicted == 0 {
		t.Fatalf("post-reset snapshot wrong: %+v", s)
	}
}
