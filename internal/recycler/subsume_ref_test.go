package recycler

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/catalog"
)

// This file keeps the subsumption candidate searches as linear scans —
// every select over the column, every semijoin over the left operand,
// the version compare and the exact range test per candidate — as the
// reference the indexed searches are held to: over randomized pools,
// entry versions and query pins both must choose the same source entry
// and build the same combined candidate set.

// --- reference implementation (linear scans, oldest candidate first) --

func selectsOverRef(p *Pool, colKey string) []*Entry {
	var out []*Entry
	for _, e := range p.All() {
		if e.IsRangeSelect && e.SelColKey == colKey {
			out = append(out, e)
		}
	}
	return out
}

func smallestSupersetRef(r *Recycler, q Pins, colKey string, lo any, incLo bool, hi any, incHi bool) *Entry {
	var best *Entry
	for _, e := range selectsOverRef(r.pool, colKey) {
		if !current(e.stamps, q) {
			continue
		}
		if !e.Sel.Contains(algebra.Range{Lo: lo, Hi: hi, IncLo: incLo, IncHi: incHi}) {
			continue
		}
		if best == nil || e.Tuples < best.Tuples {
			best = e
		}
	}
	return best
}

func overlapSnapsRef(r *Recycler, q Pins, colKey string, lo, hi any) []*Entry {
	var R []*Entry
	for _, e := range selectsOverRef(r.pool, colKey) {
		if !current(e.stamps, q) {
			continue
		}
		if e.Sel.Overlaps(algebra.Range{Lo: lo, Hi: hi}) {
			R = append(R, e)
			if len(R) >= maxCombined {
				break
			}
		}
	}
	return R
}

// isSubsetOfRef is the per-candidate subset test the semijoin scan
// used: a derivation chain from a up to b, or range containment of two
// selects over one column operand, the superset current for q (a
// semijoin over a select is computed at the select's versions).
func isSubsetOfRef(r *Recycler, q Pins, a, b uint64) bool {
	for id := a; id != 0; {
		if id == b {
			return true
		}
		e := r.pool.Get(id)
		if e == nil {
			break
		}
		id = e.SubsetOf
	}
	ea, eb := r.pool.Get(a), r.pool.Get(b)
	if ea != nil && eb != nil && ea.IsRangeSelect && eb.IsRangeSelect && ea.SelColKey == eb.SelColKey && current(eb.stamps, q) {
		return eb.Sel.Contains(ea.Sel)
	}
	return false
}

func smallestSemijoinRef(r *Recycler, q Pins, px, pw uint64) *Entry {
	var best *Entry
	for _, e := range r.pool.All() {
		if !e.IsSemijoin || e.SemiLeft != px || !current(e.stamps, q) {
			continue
		}
		if e.SemiRight == pw || !isSubsetOfRef(r, q, pw, e.SemiRight) {
			continue
		}
		if best == nil || e.Tuples < best.Tuples {
			best = e
		}
	}
	return best
}

// --- the differential driver ------------------------------------------

func entryID(e *Entry) uint64 {
	if e == nil {
		return 0
	}
	return e.ID
}

func TestSubsumptionSearchMatchesLinearScan(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		runSubsumeDiff(t, seed)
	}
}

func runSubsumeDiff(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	r := New(nil, Config{Subsumption: true, CombinedSubsumption: true})
	p := r.pool
	cols := []string{"e1", "e2", "e3"}
	tables := []string{"sys.a", "sys.b", "sys.c"}
	lefts := []uint64{9001, 9002}
	// Each table's list holds its latest commit as the applied
	// version. An entry holds since its admission, at the applied
	// version, or since the last commit whose walk changed it: from
	// that commit on for its table, from the applied version for any
	// other it reads (refreshResult).
	lists := map[string]*tableList{}
	for _, tb := range tables {
		lists[tb] = p.addTable(tb, catalog.Stamp{Created: 1})
	}

	// bound draws an endpoint from a small domain — equal and touching
	// bounds are the interesting cases — or leaves it open.
	bound := func(col string) any {
		if rng.Intn(8) == 0 {
			return nil
		}
		if col == "e3" {
			return float64(rng.Intn(60)) / 2
		}
		return int64(rng.Intn(60))
	}
	add := func(e *Entry) {
		e.Tuples = rng.Intn(6) // few distinct sizes: ties must fall the same way
		reads := []string{tables[rng.Intn(len(tables))]}
		if rng.Intn(2) == 0 {
			reads = append(reads, tables[rng.Intn(len(tables))])
		}
		for _, table := range reads {
			if l := lists[table]; !e.Reads(table) {
				e.stamps = append(e.stamps, tableStamp{l: l, since: l.applied.Load()})
			}
		}
		p.Add(e)
	}
	live := func() []*Entry { return p.All() }

	compared, found := 0, 0
	for step := 0; step < 1500; step++ {
		switch op := rng.Intn(100); {
		case op < 40: // a range select over one of the columns
			col := cols[rng.Intn(len(cols))]
			e := mkEntry(fmt.Sprintf("sel%d", step), 8, time.Microsecond)
			e.IsRangeSelect, e.SelColKey = true, col
			e.Sel.Lo, e.Sel.Hi = bound(col), bound(col)
			e.Sel.IncLo, e.Sel.IncHi = rng.Intn(2) == 0, rng.Intn(2) == 0
			if all := live(); len(all) > 0 && rng.Intn(3) == 0 {
				e.SubsetOf = all[rng.Intn(len(all))].ID
			}
			add(e)
		case op < 60: // a semijoin over one of the pooled entries
			all := live()
			if len(all) == 0 {
				continue
			}
			e := mkEntry(fmt.Sprintf("semi%d", step), 8, time.Microsecond)
			e.IsSemijoin = true
			e.SemiLeft, e.SemiRight = lefts[rng.Intn(len(lefts))], all[rng.Intn(len(all))].ID
			if p.semiIdx[[2]uint64{e.SemiLeft, e.SemiRight}] != nil {
				continue // one entry per signature
			}
			add(e)
		case op < 75: // eviction or invalidation takes an entry
			if all := live(); len(all) > 0 {
				p.Remove(all[rng.Intn(len(all))])
			}
		default: // a commit lands: its walk changes some entries over the table and proves the rest
			l := lists[tables[rng.Intn(len(tables))]]
			v := l.applied.Load() + 1
			for _, e := range l.entries {
				if e != nil && rng.Intn(3) == 0 {
					r.refreshResult(e, e.Result, l, v)
				}
			}
			l.applied.Store(v)
		}

		// A query reading each table at a version from two commits
		// behind to one ahead of the pool (a commit whose walk is to
		// come), or not at all, asks.
		q := pinsAt{}
		for _, tb := range tables {
			if rng.Intn(5) > 0 {
				v := lists[tb].applied.Load() + 1 - int64(rng.Intn(4))
				q[tb] = catalog.Stamp{Created: 1, Version: max(v, 0)}
			}
		}

		col := cols[rng.Intn(len(cols))]
		lo, hi := bound(col), bound(col)
		incLo, incHi := rng.Intn(2) == 0, rng.Intn(2) == 0
		got, want := r.smallestSuperset(q, col, algebra.Range{Lo: lo, Hi: hi, IncLo: incLo, IncHi: incHi}), smallestSupersetRef(r, q, col, lo, incLo, hi, incHi)
		if got != want {
			t.Fatalf("seed %d step %d: superset of %s %v..%v: indexed e%d, linear e%d", seed, step, col, lo, hi, entryID(got), entryID(want))
		}
		if got != nil {
			found++
		}
		if lo != nil && hi != nil {
			var gotR []uint64
			for _, s := range r.overlapSnaps(q, col, algebra.Range{Lo: lo, Hi: hi}) {
				gotR = append(gotR, s.e.ID)
			}
			var wantR []uint64
			for _, e := range overlapSnapsRef(r, q, col, lo, hi) {
				wantR = append(wantR, e.ID)
			}
			if fmt.Sprint(gotR) != fmt.Sprint(wantR) {
				t.Fatalf("seed %d step %d: R over %s %v..%v: indexed %v, linear %v", seed, step, col, lo, hi, gotR, wantR)
			}
		}
		if all := live(); len(all) > 0 {
			px, pw := lefts[rng.Intn(len(lefts))], all[rng.Intn(len(all))].ID
			got, want := r.smallestSemijoin(q, px, pw), smallestSemijoinRef(r, q, px, pw)
			if got != want {
				t.Fatalf("seed %d step %d: semijoin(%d, e%d): indexed e%d, linear e%d", seed, step, px, pw, entryID(got), entryID(want))
			}
			if got != nil {
				found++
			}
		}
		compared++
	}
	if found < compared/10 {
		t.Fatalf("seed %d: %d of %d searches found a source — the pools are too sparse to test the choice", seed, found, compared)
	}
	checkSelIndex(t, p)
}

// checkSelIndex verifies every column's range index: search-tree order,
// heap order on the priorities, subtree maxima, and exactly the valid
// range selects over the column as members.
func checkSelIndex(t *testing.T, p *Pool) {
	t.Helper()
	indexed := 0
	for col, root := range p.selIdx {
		if root == nil {
			t.Fatalf("selIdx[%s]: emptied key not dropped", col)
		}
		var prev *Entry
		var walk func(n *selNode)
		walk = func(n *selNode) {
			if n == nil {
				return
			}
			walk(n.left)
			if prev != nil && !selBefore(prev, n.e) {
				t.Fatalf("selIdx[%s]: e%d out of order after e%d", col, n.e.ID, prev.ID)
			}
			prev = n.e
			if !n.e.valid.Load() || n.e.SelColKey != col {
				t.Fatalf("selIdx[%s] holds e%d (valid=%v, col=%s)", col, n.e.ID, n.e.valid.Load(), n.e.SelColKey)
			}
			indexed++
			want := selNode{e: n.e, left: n.left, right: n.right}
			want.fix()
			if want.hiOpen != n.hiOpen || (!n.hiOpen && want.maxHi != n.maxHi) {
				t.Fatalf("selIdx[%s]: stale subtree maximum at e%d", col, n.e.ID)
			}
			for _, c := range []*selNode{n.left, n.right} {
				if c != nil && c.prio > n.prio {
					t.Fatalf("selIdx[%s]: priority order broken at e%d", col, n.e.ID)
				}
			}
			walk(n.right)
		}
		walk(root)
	}
	selects := 0
	for _, e := range p.entries {
		if e.IsRangeSelect {
			selects++
		}
	}
	if indexed != selects {
		t.Fatalf("range index holds %d entries, pool has %d range selects", indexed, selects)
	}
}
