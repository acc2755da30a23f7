package recycler

import (
	"time"

	"repro/internal/algebra"
	"repro/internal/bat"
	"repro/internal/catalog"
	"repro/internal/mal"
	"repro/internal/plan"
)

// This file is the one delta engine behind every SyncMode (paper §6).
// A commit's affected pool entries — its table's entry list — are
// walked once, in admission (= topological) order; each entry's
// cached plan.DeltaClass selects its rule from deltaRules, and the
// entry invalidates when the class has no rule, the preset masks the
// rule off, the rule fails, or a parent fell back (its parent is then
// no longer valid, which fails the rule).
// "Drop everything" (§6.4) is the empty mask; §6.3 propagation and
// full incremental maintenance are two other masks over the same
// table:
//
//	class    rule                                          falls back when
//	base     rename: the entry holds a name, not rows       result not a name
//	         (catalog.Ref), moved to the commit's version
//	         in O(1); the commit's inserts seed the walk,
//	         the dead rows' values are read by oid from
//	         the column (an index: its oid vector)
//	filter   old − P(parent δ−) ∪ P(parent δ+)             parent not a rowset
//	project  old − (δL− ⋉ δR−) ∪ (δL+ ⋉ δR+) — appended   parent not a rowset
//	         rows carry fresh oids larger than every old
//	         head, so the δL⋉R and L⋉δR cross terms vanish
//	agg      count/int-sum apply the delta arithmetically; parent not a rowset,
//	         float sums recompute over the maintained      kind mismatch
//	         parent (FP addition is non-associative; parent
//	         order is what keeps the bits a recompute's)
//	view     re-derive from the maintained parent          parent fell back
//	join     append δL⋈R ∪ L⋈δR ∪ δL⋈δR (same bag as a     any delete
//	         recompute, appended rather than interleaved)
//
// A rowset is a result still headed by its base table's oids — what
// base, filter and project produce. A rowset's removed rows (δ−) are
// exactly its pre-commit rows whose head the commit tombstoned, with
// their values: the base reads them by oid, and a filter or project
// derives its own from its parents' as the table shows. That is what
// lets a rule test reach on the delta rows and drop only the heads
// that die (SplitHeads); it means nothing over a view's or join's
// re-headed result, nor over an entry that reads two tables, so the
// three rowset rules refuse those parents.
//
// A rule works only where the delta lands: it returns before touching
// its entry when its parents report no rows added or removed (a view:
// when its parent's result is the object it was), and a filter or
// project whose own δ+ and δ− come out empty leaves its result alone.
// An entry the commit does not reach costs a few pointer loads — its
// parents (Entry.parents) and what the walk did to them (Entry.delta,
// nil when nothing) — and still counts as maintained, having been
// proven the same at both ends of the commit. A commit therefore costs
// the rows it moves and the entries over its table, not the pool or
// the table: a bind is renamed at the commit's version without reading
// a row, a rowset the delta lands in is extended past its published
// length (bat.Extend) on an insert and copied once on a delete, and
// base storage is read only at the dead and inserted oids. Only the
// rules that read a bind parent's rows — float SUM, view and join —
// materialise it, at the commit's version (view and join are masked
// off under maintain).
//
// Only a published commit reaches the walk: a statement that fails
// before the catalog publishes its version changes nothing, so no
// listener hears of it and every entry stays as it was.
//
// Versions are intervals: an entry holds for the versions of the table
// from its since (Entry.stamps) up to the one the list has applied. A
// rule that swaps the result moves the entry's since to the commit's
// version with it (refresh), under the same shard lock — and, for any
// other table the entry reads, to that table's applied version, which
// the parents the rule read hold at; an entry the
// delta does not reach is not touched at all, and OnUpdate moves the
// list's applied version once the walk is done.

// ruleMask is a set of plan.DeltaClass values: the rules a SyncMode
// preset leaves switched on.
type ruleMask uint8

func (m ruleMask) has(c plan.DeltaClass) bool { return m&(1<<c) != 0 }

// The three SyncMode presets. propagate is the paper's §6.3 operator
// set; maintain trades its views and joins for projections and
// aggregates, which is what keeps whole select-project-aggregate
// plans warm across commits. rowsetClasses is not a preset: it names
// the classes whose result keeps base-table oids as heads.
const (
	invalidateRules ruleMask = 0
	propagateRules  ruleMask = 1<<plan.DeltaBase | 1<<plan.DeltaFilter | 1<<plan.DeltaView | 1<<plan.DeltaJoin
	maintainRules   ruleMask = 1<<plan.DeltaBase | 1<<plan.DeltaFilter | 1<<plan.DeltaProject | 1<<plan.DeltaAgg
	rowsetClasses   ruleMask = 1<<plan.DeltaBase | 1<<plan.DeltaFilter | 1<<plan.DeltaProject
)

// deltaRules holds the one rule of each class: it brings the entry up
// to date with the commit and reports what it changed, or reports
// false and leaves the entry to be invalidated. DeltaNone has none.
var deltaRules = [...]func(*commitWalk, *Entry) (change, bool){
	plan.DeltaNone:    nil,
	plan.DeltaBase:    (*commitWalk).base,
	plan.DeltaFilter:  (*commitWalk).filter,
	plan.DeltaProject: (*commitWalk).project,
	plan.DeltaAgg:     (*commitWalk).agg,
	plan.DeltaView:    (*commitWalk).view,
	plan.DeltaJoin:    (*commitWalk).join,
}

// change is what one rule did to one entry: the rows it appended
// (already pushed through the entry's own operator), the rows it
// tombstoned out (with their values — read by oid at the base, since
// the catalog reports deleted oids only), and the entry's pre-commit
// result (its rows, or a bind's name), which the join rule's cross
// terms read.
// On a delete commit a view's change carries no rows although the view
// shrank: nothing reads them, since the rowset rules refuse view
// parents and the join rule refuses delete commits.
type change struct {
	added, removed *bat.BAT
	old            *bat.BAT
	oldRef         *catalog.Ref // old is a bind's name
}

// commitWalk is the state of one applyCommit of commit c over list l.
// reached holds every entry a rule changed, whose Entry.delta is set
// until the walk ends: a valid entry with none is as the commit found
// it — out of the delta's reach, or not walked yet (impossible for a
// parent — parents are admitted, hence walked, first); one that fell
// back is no longer valid.
type commitWalk struct {
	r       *Recycler
	l       *tableList
	c       catalog.Commit
	reached []*Entry
}

// commitSummary reports one walk's outcome for the trace layer: how
// many entries were delta-maintained and how many of those a rule
// changed (reached), how many fell back to invalidation, and why
// (cause → count).
type commitSummary struct {
	maintained int
	reached    int
	fallback   int
	causes     map[string]int
}

func (s *commitSummary) fellBack(cause string) {
	s.fallback++
	if s.causes == nil {
		s.causes = map[string]int{}
	}
	s.causes[cause]++
}

// applyCommit brings every entry of the commit's table list l up to
// date with the commit, by delta rule where rules allows and by
// invalidation otherwise. Every entry in l holds at the version before
// the commit (OnUpdate walks only a list that has not applied it).
// Caller holds the writer lock. The returned summary feeds the commit
// trace event (emitted by OnUpdate after the lock is released); it and
// the maintenance counters stay zero under the empty mask, which has
// nothing to fall back from.
func (r *Recycler) applyCommit(l *tableList, c catalog.Commit, rules ruleMask) (sum commitSummary) {
	if rules == invalidateRules {
		for _, e := range l.entries {
			if e != nil {
				r.invalidate(e)
			}
		}
		return sum
	}
	start := time.Now()
	w := &commitWalk{r: r, l: l, c: c}
	for _, e := range l.entries {
		if e == nil || !e.valid.Load() {
			continue
		}
		old, oldRef := e.Result.Bat, e.Result.Ref
		var ch change
		var cause string
		switch rule := deltaRules[e.deltaClass]; {
		case rule == nil || !rules.has(e.deltaClass):
			cause = "ineligible-op"
		default:
			var ok bool
			if ch, ok = rule(w, e); !ok {
				cause = "rule-failed" // includes a parent's fallback poisoning the child
			}
		}
		if cause != "" {
			sum.fellBack(cause)
			r.invalidate(e)
			continue
		}
		sum.maintained++
		n := rows(ch.added) + rows(ch.removed)
		if n > 0 || e.Result.Bat != old || e.Result.Ref != oldRef {
			e.delta = &change{added: ch.added, removed: ch.removed, old: old, oldRef: oldRef}
			w.reached = append(w.reached, e)
		}
		if n > 0 {
			r.deltaRows.Add(int64(n))
		}
	}
	for _, e := range w.reached {
		e.delta = nil
	}
	sum.reached = len(w.reached)
	r.maintained.Add(int64(sum.maintained))
	r.reached.Add(int64(sum.reached))
	r.maintainFallback.Add(int64(sum.fallback))
	r.maintainNs.Add(time.Since(start).Nanoseconds())
	return sum
}

func rows(b *bat.BAT) int {
	if b == nil {
		return 0
	}
	return b.Len()
}

// parent resolves argument i's producer and what this walk did to it.
// ok reports the parent is valid and either untouched by the commit or
// already brought up to date; a parent that fell back was invalidated
// and so takes the child down with it.
func (w *commitWalk) parent(e *Entry, i int) (pe *Entry, ch change, ok bool) {
	if pe = e.parents[i]; pe == nil || !pe.valid.Load() {
		return nil, change{}, false
	}
	if pe.delta != nil {
		return pe, *pe.delta, true
	}
	ch.old, ch.oldRef = pe.Result.Bat, pe.Result.Ref // untouched by this commit
	return pe, ch, true
}

// refresh swaps e's result for v computed at the commit's version.
func (w *commitWalk) refresh(e *Entry, v mal.Value) {
	w.r.refreshResult(e, v, w.l, w.c.Stamp.Version)
}

// still reports that the walk left parent pe's result the object — the
// rows or the name — it was, given pe's change as parent returned it.
func (ch change) still(pe *Entry) bool { return ch.old == pe.Result.Bat && ch.oldRef == pe.Result.Ref }

// oldRows returns the pre-commit result's rows, a bind's materialised
// at the version before the commit.
func (ch change) oldRows() *bat.BAT {
	if ch.old == nil && ch.oldRef != nil {
		return ch.oldRef.Rows()
	}
	return ch.old
}

// empty reports that the change neither added nor removed a row.
func (ch change) empty() bool { return rows(ch.added)+rows(ch.removed) == 0 }

// rowsetParent is parent for the rules that tombstone by head oid: it
// additionally requires the parent to be a rowset and e to read one
// base table (see the file comment).
func (w *commitWalk) rowsetParent(e *Entry, i int) (pe *Entry, ch change, ok bool) {
	pe, ch, ok = w.parent(e, i)
	ok = ok && len(e.stamps) == 1 && rowsetClasses.has(pe.deltaClass) && pe.Result.Kind == mal.VBat
	return pe, ch, ok
}

// base seeds the walk and renames: a bind entry holds a name, not rows
// (catalog.Ref), so the rule moves it to the commit's version in O(1).
// The commit's insert vector for the column, headed with the fresh
// oids only here (Ref.Appended), becomes the entry's delta, and the
// rows it tombstoned are read by oid out of the column (or the index's
// oid vector), which keeps a dead row's slot — O(δ) — for the
// aggregates downstream. A join index (child oid → parent oid) is
// headed by its own table's oids, so only that table's commits add or
// remove rows.
func (w *commitWalk) base(e *Entry) (ch change, ok bool) {
	ref := e.Result.Ref
	if ref == nil {
		return ch, false
	}
	if ref.Snapshot().Table != w.c.Table {
		// The index's parent table committed: no row of the index moved.
		return ch, e.OpName == "sql.bindIdxbat"
	}
	if len(w.c.Deleted) > 0 {
		ch.removed = ref.RowsAt(bat.NewOids(w.c.Deleted))
	}
	next := ref.At(w.c.Snapshot)
	ch.added = next.Appended(w.c)
	w.refresh(e, mal.RefV(next))
	return ch, true
}

// filter runs the entry's predicate (Entry.pred) over the parent's
// delta rows: the inserted rows it keeps are appended, the removed rows
// it keeps are the ones that die here. Only their heads are asked for,
// which costs no allocation when the filter did not hold them.
func (w *commitWalk) filter(e *Entry) (ch change, ok bool) {
	_, p, ok := w.rowsetParent(e, 0)
	if !ok || e.pred == nil || e.Result.Kind != mal.VBat {
		return ch, false
	}
	if p.empty() {
		return ch, true
	}
	var dying []bat.Oid
	if rows(p.added) > 0 {
		ch.added = algebra.Filter(p.added, *e.pred)
	}
	if rows(p.removed) > 0 {
		dying = algebra.FilterHeads(p.removed, *e.pred)
	}
	return w.splitAppend(e, ch.added, dying), true
}

// project applies the semijoin rule. Old rows and fresh delta rows live
// in disjoint oid ranges, so the only surviving cross term is δL ⋉ δR;
// a dead head was in the result when both sides held it, so the rows
// that die are δL− ⋉ δR−.
func (w *commitWalk) project(e *Entry) (ch change, ok bool) {
	_, l, okL := w.rowsetParent(e, 0)
	_, r, okR := w.rowsetParent(e, 1)
	if !okL || !okR || e.Result.Kind != mal.VBat {
		return ch, false
	}
	if l.empty() && r.empty() {
		return ch, true
	}
	var dying []bat.Oid
	if rows(l.added) > 0 && rows(r.added) > 0 {
		ch.added = algebra.Semijoin(l.added, r.added)
	}
	if rows(l.removed) > 0 && rows(r.removed) > 0 {
		dying = bat.MaterialiseOids(algebra.Semijoin(l.removed, r.removed).Head)
	}
	return w.splitAppend(e, ch.added, dying), true
}

// splitAppend is the rowset update shared by filter and project: drop
// the dying heads (ascending) from e's result, append added, swap
// it in — or leave e alone when neither holds a row, the commit not
// reaching it.
func (w *commitWalk) splitAppend(e *Entry, added *bat.BAT, dying []bat.Oid) change {
	cur, removed := e.Result.Bat, (*bat.BAT)(nil)
	if len(dying) > 0 {
		cur, removed = algebra.SplitHeads(cur, dying)
	}
	if rows(added) == 0 {
		if added = nil; removed == nil {
			return change{}
		}
	} else {
		if removed == nil && !e.ownsRoom {
			cur = cur.Slice(0, cur.Len())
		}
		cur = cur.Extend(added)
	}
	w.refresh(e, mal.BatV(cur))
	e.ownsRoom = true
	return change{added: added, removed: removed}
}

// agg maintains the flat additive aggregates. Count and int sum apply
// the parent's delta arithmetically (exact — integer addition is
// associative); float sum recomputes over the parent's maintained
// rowset, whose row order equals a from-scratch recompute's, so the
// resulting bits are identical to one. The change it reports is the
// parent's: those are the rows the aggregate absorbed.
func (w *commitWalk) agg(e *Entry) (ch change, ok bool) {
	pe, p, ok := w.rowsetParent(e, 0)
	if !ok {
		return ch, false
	}
	if p.empty() {
		return ch, true
	}
	isInt := func(b *bat.BAT) bool { return b == nil || b.Tail.Kind() == bat.KInt }
	switch {
	case e.OpName == "aggr.count" && e.Result.Kind == mal.VInt:
		w.refresh(e, mal.IntV(algebra.DeltaCount(e.Result.I, p.added, p.removed)))
	case e.OpName == "aggr.sumInt" && e.Result.Kind == mal.VInt && isInt(p.added) && isInt(p.removed):
		w.refresh(e, mal.IntV(algebra.DeltaSumInt(e.Result.I, p.added, p.removed)))
	case e.OpName == "aggr.sumFlt" && e.Result.Kind == mal.VFloat && pe.Result.Materialised().Bat.Tail.Kind() == bat.KFloat:
		w.refresh(e, mal.FloatV(algebra.SumFloat(pe.Result.Materialised().Bat)))
	default:
		return ch, false
	}
	return change{added: p.added, removed: p.removed}, true
}

// view re-derives a zero-cost viewpoint operator from the parent's
// maintained result and forwards the parent's insert delta through the
// same transformation. markT's dense tail re-extends over the parent:
// inserts append at the end, so the prefix is unchanged and the delta
// is the appended slice (§6.3: the sequence continues with the next
// row identifier).
func (w *commitWalk) view(e *Entry) (ch change, ok bool) {
	pe, p, ok := w.parent(e, 0)
	if !ok || pe.Result.Kind != mal.VBat || e.Result.Kind != mal.VBat {
		return ch, false
	}
	if p.still(pe) {
		return ch, true
	}
	parent := pe.Result.Materialised().Bat // a bind's at the commit's version: parents go first
	var nb *bat.BAT
	switch e.OpName {
	case "bat.reverse":
		nb = parent.Reverse()
		if p.added != nil {
			ch.added = p.added.Reverse()
		}
	case "bat.mirror":
		nb = parent.Mirror()
		if p.added != nil {
			ch.added = p.added.Mirror()
		}
	case "algebra.markT":
		nb = parent.MarkT(e.Args[1].O)
		if old := e.Result.Bat.Len(); nb.Len() > old {
			ch.added = nb.Slice(old, nb.Len())
		}
	default:
		return ch, false
	}
	w.refresh(e, mal.BatV(nb))
	return ch, true
}

// join is differential insert re-evaluation (Blakeley et al., via
// paper §6.3): δL⋈Rold ∪ Lold⋈δR ∪ δL⋈δR appended to the cached
// result. Differential deletes are what the paper flags as complex;
// any delete falls back.
func (w *commitWalk) join(e *Entry) (ch change, ok bool) {
	_, l, okL := w.parent(e, 0)
	_, r, okR := w.parent(e, 1)
	if len(w.c.Deleted) > 0 || !okL || !okR || e.Result.Kind != mal.VBat {
		return ch, false
	}
	// A bind parent's old rows are read at the version before the
	// commit, which an insert left with the same tombstones.
	lOld, rOld := l.oldRows(), r.oldRows()
	if lOld == nil || rOld == nil {
		return ch, false
	}
	for _, term := range [3][2]*bat.BAT{{l.added, rOld}, {lOld, r.added}, {l.added, r.added}} {
		if rows(term[0]) == 0 || rows(term[1]) == 0 {
			continue
		}
		t := algebra.Join(term[0], term[1])
		if ch.added == nil {
			ch.added = t
		} else {
			ch.added = bat.Append(ch.added, t)
		}
	}
	if rows(ch.added) > 0 {
		w.refresh(e, mal.BatV(bat.Append(e.Result.Bat, ch.added)))
	}
	return ch, true
}
