package catalog

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/bat"
)

// version is one committed state of a table, immutable once
// published (Table.cur): a commit builds the next version aside and
// publishes it with one store, so a reader holding a version needs no
// lock. Storage below a version's row count is never rewritten —
// appends write past it (bat.Extend) — so consecutive versions share
// their vectors' storage. Only the caches on its tombstones fill in
// after publication.
type version struct {
	stamp Stamp
	// nrows counts the rows, tombstoned ones included; row oid i is
	// slot i of every vector.
	nrows int
	cols  []colVersion // in Table.Cols order
	idx   []joinTail   // in definition order (joinIndex.pos)
	tomb  *tombstones  // nil over a dense version
}

// colVersion is one column at a version: its values and whether they
// are non-decreasing (declared at creation, cleared by the first
// append that breaks it).
type colVersion struct {
	data   bat.Vector
	sorted bool
}

// joinTail is one join index at a version: the parent oid of every
// child row and, while the version has no tombstones, the handle of
// its postings (bat.Postings, child rows per parent oid), built by the
// first join that asks, so an oid join against a few parents reads
// their children instead of every child row (algebra.Join). Postings
// are not counted in a bind's ByteSize, so a pooled bind keeps its
// version's postings (up to 12 bytes per child row) alive outside the
// recycler's byte cap.
type joinTail struct {
	*joinIndex
	oids []bat.Oid // appended in place, like the columns
	post *bat.LazyPostings
}

// tombstones is one tombstone list and the caches built from it, which
// every version from a delete up to the next one shares: the live oids
// (the head of every bind at such a version) and, per column, the live
// tail (the column without its dead slots). A cache holds the rows of
// the newest version sharing the list, which the older ones slice to
// their length. The first bind that reads a cache fills it (fill), an
// append extends the filled ones, and a delete starts a new, empty
// object, so only the columns queries actually read pay for a tail,
// once per delete at most.
type tombstones struct {
	oids  []bat.Oid // ascending
	live  cache
	tails []cache // in Table.Cols order
}

// cache is one vector of a tombstones, nil until filled.
type cache struct{ p atomic.Pointer[bat.Vector] }

func (c *cache) load() bat.Vector {
	if p := c.p.Load(); p != nil {
		return *p
	}
	return nil
}

func (c *cache) store(v bat.Vector) { c.p.Store(&v) }

func newTombstones(oids []bat.Oid, ncols int) *tombstones {
	return &tombstones{oids: oids, tails: make([]cache, ncols)}
}

// deleted returns the version's tombstones, ascending.
func (v *version) deleted() []bat.Oid {
	if v.tomb == nil {
		return nil
	}
	return v.tomb.oids
}

// index returns the join index named name, nil when the version has
// none.
func (v *version) index(name string) *joinIndex {
	for _, jt := range v.idx {
		if jt.name == name {
			return jt.joinIndex
		}
	}
	return nil
}

// Snapshot is one committed version of a table: the version's Stamp
// and the version itself. Holding one costs nothing and reads the
// version for as long as it is held, whatever commits land after it
// (Column.BindAt, Table.BindIdxAt).
type Snapshot struct {
	Table *Table
	Stamp Stamp

	v *version
}

// Len returns the number of live rows at the version.
func (s Snapshot) Len() int { return s.v.nrows - len(s.v.deleted()) }

// snapshot returns the table's current version.
func (t *Table) snapshot() Snapshot {
	v := t.cur.Load()
	return Snapshot{Table: t, Stamp: v.stamp, v: v}
}

// NumRows returns the number of live rows.
func (t *Table) NumRows() int { return t.snapshot().Len() }

// HasDeletes reports whether the table carries tombstones.
func (t *Table) HasDeletes() bool { return t.cur.Load().tomb != nil }

// Bind returns a BAT over the live rows of the column's current
// version; BindAt reads a pinned one.
func (c *Column) Bind() *bat.BAT { return c.BindAt(c.Table.snapshot()) }

// BindAt returns a BAT over the live rows of the column at snapshot s
// (a snapshot of the column's table) without copying: over a dense
// version a dense-headed view of the column, over one with tombstones
// a view of the live oids heading a view of the column's live tail.
// Only a bind whose tombstones a delete replaced before any bind
// filled their caches copies: its head and tail are built for it alone.
func (c *Column) BindAt(s Snapshot) *bat.BAT {
	v := s.v
	col := v.cols[c.pos]
	var b *bat.BAT
	if v.tomb == nil {
		// The tail is a view over the committed column: binding
		// materialises nothing, so recycle pool accounting must not
		// charge the column's storage to the bind intermediate.
		b = bat.New(bat.NewDense(0, v.nrows), col.data.Slice(0, v.nrows))
	} else {
		tail := s.live(&v.tomb.tails[c.pos], func(v *version) bat.Vector { return v.cols[c.pos].data })
		b = s.liveBAT(tail)
	}
	b.TailSorted = col.sorted
	return b
}

// live returns the live rows of one vector of the version, which has
// tombstones, given the cache of them and all, the whole vector at a
// version: a view of the cache, filled here if need be, or, when a
// delete has replaced the version's tombstones before anyone filled
// it, the rows built for the caller alone.
func (s Snapshot) live(c *cache, all func(*version) bat.Vector) bat.Vector {
	v := c.load()
	if v == nil {
		if v = s.Table.fill(s.v.tomb, c, all); v == nil {
			return bat.Drop(all(s.v).Slice(0, s.v.nrows), s.v.tomb.oids)
		}
	}
	return v.Slice(0, s.Len())
}

// fill fills cache c of tombstone list tomb, unless a delete has
// replaced the list, and returns it; nil when replaced. It is the one
// read of a version that takes the catalog lock: holding it shared
// locks appends out, so the cache covers the current version and the
// next append extends it. Concurrent fills build equal vectors, and
// whichever is published first is kept.
func (t *Table) fill(tomb *tombstones, c *cache, all func(*version) bat.Vector) bat.Vector {
	t.catalog.mu.RLock()
	defer t.catalog.mu.RUnlock()
	cur := t.cur.Load()
	if cur.tomb != tomb {
		return nil
	}
	if c.load() == nil {
		v := bat.Drop(all(cur), tomb.oids)
		c.p.CompareAndSwap(nil, &v)
	}
	return c.load()
}

// liveBAT heads tail, one value per live row of the version, with the
// version's live oids. The version has tombstones.
func (s Snapshot) liveBAT(tail bat.Vector) *bat.BAT {
	head := s.live(&s.v.tomb.live, func(v *version) bat.Vector { return bat.NewDense(0, v.nrows) })
	b := bat.New(head, tail)
	b.HeadSorted = true
	b.KeyUnique = true
	return b
}

// BindIdx returns the join index as a BAT (child oid -> parent oid)
// at the table's current version; BindIdxAt reads a pinned one.
func (t *Table) BindIdx(idxName string) *bat.BAT { return t.BindIdxAt(t.snapshot(), idxName) }

// BindIdxAt returns the join index at snapshot s of the table, the
// engine's sql.bindIdxbat. Tombstoned child rows are filtered out.
func (t *Table) BindIdxAt(s Snapshot, idxName string) *bat.BAT {
	ix := s.v.index(idxName)
	if ix == nil {
		panic(fmt.Sprintf("catalog: unknown join index %s on %s", idxName, t.QName()))
	}
	return s.bindIdx(ix)
}

// bindIdx binds join index ix at the version: its own oid vector over
// a dense version, a copy without the dead rows otherwise. Only the
// table's current version hands out its postings: one a commit has
// superseded is read by in-flight queries alone, for which building
// postings the pool does not count would not pay.
func (s Snapshot) bindIdx(ix *joinIndex) *bat.BAT {
	v := s.v
	jt := v.idx[ix.pos]
	if v.tomb == nil {
		post := jt.post
		if v != s.Table.cur.Load() {
			post = nil
		}
		return bat.New(bat.NewDense(0, v.nrows), bat.NewOidsWithPostings(slices.Clip(jt.oids), post))
	}
	return s.liveBAT(bat.Drop(bat.NewOids(slices.Clip(jt.oids)), v.tomb.oids))
}

// JoinIndexParent returns the parent table of a join index, or nil.
// The recycler uses it to derive invalidation dependencies for
// bindIdxbat intermediates.
func (t *Table) JoinIndexParent(idxName string) *Table {
	if ix := t.cur.Load().index(idxName); ix != nil {
		return ix.parent
	}
	return nil
}

// Row is a tuple addressed by column name. Only Append reads one.
type Row map[string]any

// Append inserts rows through AppendColumns and returns the oid of the
// first one. It types each column of rows to its column's kind first,
// so a row value of the wrong type panics with the table, the log and
// the listeners untouched. The typed path, AppendColumns, builds no map
// per row; Append stays for callers that hold rows.
func (t *Table) Append(rows []Row) bat.Oid {
	cols := make([]bat.Vector, len(t.Cols))
	for i, c := range t.Cols {
		switch c.KindOf {
		case bat.KInt:
			cols[i] = bat.NewInts(valuesOf[int64](rows, c.Name))
		case bat.KFloat:
			cols[i] = bat.NewFloats(valuesOf[float64](rows, c.Name))
		case bat.KDate:
			cols[i] = bat.NewDates(valuesOf[bat.Date](rows, c.Name))
		case bat.KOid:
			cols[i] = bat.NewOids(valuesOf[bat.Oid](rows, c.Name))
		case bat.KBool:
			cols[i] = bat.NewBools(valuesOf[bool](rows, c.Name))
		case bat.KStr:
			cols[i] = bat.NewStrings(valuesOf[string](rows, c.Name))
		default:
			panic("catalog: delta of unsupported kind")
		}
	}
	first, err := t.AppendColumns(cols)
	if err != nil {
		panic(err)
	}
	return first
}

// valuesOf returns column col of rows, typed as T; a value of another
// type panics.
func valuesOf[T any](rows []Row, col string) []T {
	v := make([]T, len(rows))
	for i, r := range rows {
		v[i] = r[col].(T)
	}
	return v
}

// AppendColumns inserts rows given column by column — one vector per
// column of the table, in definition order, each of its column's kind
// and all of one length — and commits them as one Commit. It
// returns the oid of the first inserted row. A wrong column count, kind
// or length is an error with the table, its dictionaries, the log and
// the listeners untouched.
//
// The rows land past the columns' published length (see version), so
// the commit costs the rows it adds, not the rows the table holds. The
// table takes the vectors over: a load into an empty column adopts its
// vector as the column, dictionary and all, so a caller sizes it
// exactly and does not touch it afterwards.
func (t *Table) AppendColumns(cols []bat.Vector) (bat.Oid, error) {
	n, err := t.checkColumns(cols)
	if err != nil {
		return 0, err
	}
	if n == 0 {
		return bat.Oid(t.cur.Load().nrows), nil
	}
	t.commitMu.Lock()
	defer t.commitMu.Unlock()
	deltas := t.encode(cols)
	c := t.catalog
	cm, ls := func() (Commit, []UpdateListener) {
		c.mu.Lock()
		defer c.mu.Unlock()
		cur := t.cur.Load()
		first := bat.Oid(cur.nrows)
		next := &version{stamp: cur.stamp, nrows: cur.nrows + n, cols: make([]colVersion, len(cur.cols)), tomb: cur.tomb}
		for i, d := range deltas {
			old := cur.cols[i]
			next.cols[i] = colVersion{data: d, sorted: old.sorted && staysSorted(old.data, d)}
			if old.data.Len() > 0 {
				next.cols[i].data = bat.Extend(old.data, d)
			}
		}
		next.idx = t.extendIndexesLocked(cur, first, deltas)
		if tomb := cur.tomb; tomb != nil {
			if l := tomb.live.load(); l != nil {
				tomb.live.store(bat.Extend(l, bat.NewDense(first, n)))
			}
			for i := range tomb.tails {
				if tail := tomb.tails[i].load(); tail != nil {
					tomb.tails[i].store(bat.Extend(tail, deltas[i]))
				}
			}
		}
		return t.publishLocked(next, Commit{Kind: CommitInsert, Inserts: deltas, FirstOid: first, NumRows: n})
	}()
	for _, l := range ls {
		l.OnUpdate(cm)
	}
	return cm.FirstOid, nil
}

// checkColumns returns the row count of cols, or why they cannot be
// the table's next rows.
func (t *Table) checkColumns(cols []bat.Vector) (int, error) {
	if len(cols) != len(t.Cols) {
		return 0, fmt.Errorf("catalog: append to %s: %d columns for %d", t.qname, len(cols), len(t.Cols))
	}
	n := 0
	for i, c := range t.Cols {
		v := cols[i]
		if v == nil || v.Kind() != c.KindOf {
			return 0, fmt.Errorf("catalog: append to %s: column %s needs %v values", t.qname, c.Name, c.KindOf)
		}
		if i == 0 {
			n = v.Len()
		} else if v.Len() != n {
			return 0, fmt.Errorf("catalog: append to %s: column %s has %d values, %s has %d", t.qname, c.Name, v.Len(), t.Cols[0].Name, n)
		}
	}
	return n, nil
}

// encode returns the checked cols as the deltas a commit publishes:
// strings in the codes of their column's dictionary, so the delta, the
// column, its live tail and every listener share one set of codes (a
// load into an empty column keeps the dictionary it brings), and oids
// materialised. Caller holds commitMu.
func (t *Table) encode(cols []bat.Vector) []bat.Vector {
	cur := t.cur.Load()
	deltas := slices.Clone(cols)
	for i, d := range deltas {
		switch d := d.(type) {
		case *bat.Strings:
			if s := cur.cols[i].data.(*bat.Strings); s.Len() > 0 && d.D != s.D {
				deltas[i] = bat.StringsOf(s.D.Encode(d.Decode()), s.D)
			}
		case *bat.DenseOids:
			deltas[i] = bat.NewOids(bat.MaterialiseOids(d))
		}
	}
	return deltas
}

// staysSorted reports whether a sorted column stays non-decreasing
// once delta follows its last committed value. Kinds without an order
// answer false, which only costs the sorted-select fast path. Strings
// compare their values, not their codes.
func staysSorted(data, delta bat.Vector) bool {
	switch d := delta.(type) {
	case *bat.Ints:
		return nonDecreasing(data.(*bat.Ints).V, d.V)
	case *bat.Floats:
		return nonDecreasing(data.(*bat.Floats).V, d.V)
	case *bat.Strings:
		n := data.Len()
		return nonDecreasing(data.Slice(max(n-1, 0), n).(*bat.Strings).Decode(), d.Decode())
	case *bat.Dates:
		return nonDecreasing(data.(*bat.Dates).V, d.V)
	case *bat.Oids:
		return nonDecreasing(data.(*bat.Oids).V, d.V)
	}
	return false
}

func nonDecreasing[T cmp.Ordered](committed, delta []T) bool {
	if n := len(committed); n > 0 && len(delta) > 0 && committed[n-1] > delta[0] {
		return false
	}
	for i := 1; i < len(delta); i++ {
		if delta[i-1] > delta[i] {
			return false
		}
	}
	return true
}

// extendIndexesLocked brings the key indexes up to the rows appended
// at oid first, whose typed values are deltas, and returns the join
// indexes of the version that holds them. Key index entries of
// tombstoned rows are filtered by LookupKey and join index rows by the
// binds, so deletes need none. Caller holds the write lock.
func (t *Table) extendIndexesLocked(cur *version, first bat.Oid, deltas []bat.Vector) []joinTail {
	for col, idx := range t.keyIndexes {
		for i, k := range deltas[t.colByName[col].pos].(*bat.Ints).V {
			idx[k] = first + bat.Oid(i)
		}
	}
	if len(cur.idx) == 0 {
		return nil
	}
	idx := make([]joinTail, len(cur.idx))
	for i, jt := range cur.idx {
		idx[i] = jt.at(jt.extend(jt.oids, deltas[jt.fkPos].(*bat.Ints).V), cur.tomb == nil)
	}
	return idx
}

// Delete tombstones the given oids and commits them as one Commit, which
// reports the rows actually removed in ascending oid order. It costs
// the rows it removes and the tombstone list it extends: the new list
// starts with empty caches, which the next bind that reads them fills
// (Column.BindAt).
func (t *Table) Delete(oids []bat.Oid) {
	if len(oids) == 0 {
		return
	}
	really := slices.Clone(oids)
	slices.Sort(really)
	really = slices.Compact(really)
	t.commitMu.Lock()
	defer t.commitMu.Unlock()
	c := t.catalog
	cm, ls := func() (Commit, []UpdateListener) {
		c.mu.Lock()
		defer c.mu.Unlock()
		cur := t.cur.Load()
		dead := cur.deleted()
		really = slices.DeleteFunc(really, func(o bat.Oid) bool {
			_, gone := slices.BinarySearch(dead, o)
			return gone || o >= bat.Oid(cur.nrows)
		})
		if len(really) == 0 {
			return Commit{}, nil
		}
		next := &version{stamp: cur.stamp, nrows: cur.nrows, cols: cur.cols, tomb: newTombstones(mergeOids(dead, really), len(cur.cols))}
		if len(cur.idx) > 0 {
			next.idx = make([]joinTail, len(cur.idx))
			for i, jt := range cur.idx {
				next.idx[i] = jt.at(jt.oids, false) // a version with tombstones carries no postings
			}
		}
		return t.publishLocked(next, Commit{Kind: CommitDelete, Deleted: really})
	}()
	for _, l := range ls {
		l.OnUpdate(cm)
	}
}

// mergeOids merges two ascending, disjoint oid lists into a new one.
func mergeOids(a, b []bat.Oid) []bat.Oid {
	out := make([]bat.Oid, 0, len(a)+len(b))
	for _, o := range b {
		i, _ := slices.BinarySearch(a, o)
		out = append(append(out, a[:i]...), o)
		a = a[i:]
	}
	return append(out, a...)
}

// publishLocked commits next, built from the current version: stamped
// one update past it, it becomes the table's version in one store, and
// cm, which carries it, is committed (Catalog.commitLocked). The caller
// notifies the returned listeners of the returned commit. Caller holds
// the write lock.
func (t *Table) publishLocked(next *version, cm Commit) (Commit, []UpdateListener) {
	next.stamp.Version++
	t.cur.Store(next)
	cm.Schema, cm.Name = t.Schema, t.Name
	cm.Snapshot = Snapshot{Table: t, Stamp: next.stamp, v: next}
	return t.catalog.commitLocked(cm)
}
