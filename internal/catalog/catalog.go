package catalog

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/bat"
)

// Catalog is the collection of tables, keyed by schema-qualified name.
//
// A single RWMutex covers the whole catalog: binds and index lookups
// take it shared, DDL/DML take it exclusively, so concurrent sessions
// may query while updates serialise against them. Update listeners are
// notified after the lock is released — they may freely read the
// catalog, and pool maintenance therefore lands momentarily after the
// commit itself.
//
// Isolation is per query. A query reads each table at one version, a
// Snapshot taken the first time it touches the table (mal.Ctx.Pin):
// every later bind of that query names its rows at the snapshot (Ref),
// and whatever reads them materialises them there, so two columns
// bound around a concurrent commit agree with each other. Snapshots
// cost nothing to keep — storage is immutable below the published
// length and a delete publishes a new tombstone list — and the
// recycler compares the snapshot's Stamp with the versions its entries
// were computed at, so the pool never mixes versions either. A commit
// costs the rows it moves: the live-oid list and the columns' live
// tails are caches of the current tombstone list, built by the first
// bind that reads them and dropped, not rebuilt, by a delete.
type Catalog struct {
	mu        sync.RWMutex
	tables    map[string]*Table
	listeners []UpdateListener

	// commitSeq counts committed statements (DDL and DML) catalog-wide.
	// It is the durable commit epoch: the store layer snapshots it with
	// every checkpoint and stamps every WAL record with it, so replay
	// after a crash can skip records the snapshot already covers.
	commitSeq uint64
	// commitHook, when set, observes every committed statement *under
	// the catalog write lock*, immediately after the mutation became
	// visible — hook invocation order is therefore exactly commit
	// order, which is what a write-ahead log needs. The hook must be
	// fast and must not call back into the catalog.
	commitHook func(CommitRecord)
}

// CommitKind enumerates the durable statement classes a CommitRecord
// can describe.
type CommitKind uint8

// Commit record kinds. The values are durable (WAL records carry
// them), so they are spelled out: 3 numbered in-place column updates,
// which nothing produces any more, and stays reserved so an old log
// holding one fails to decode rather than replaying as something else.
const (
	// CommitCreate records a CreateTable.
	CommitCreate CommitKind = 0
	// CommitInsert records an Append.
	CommitInsert CommitKind = 1
	// CommitDelete records a Delete.
	CommitDelete CommitKind = 2
	// CommitDrop records a DropTable.
	CommitDrop CommitKind = 4
	// CommitInvalidate marks an UpdateEvent whose mutation panicked
	// partway: columns may be partially applied, so listeners must
	// invalidate everything depending on the table. It is an event
	// kind only — never written to the durability hook.
	CommitInvalidate CommitKind = 5
)

// CommitRecord describes one committed statement for the durability
// hook (SetCommitHook). Unlike UpdateEvent it is self-contained —
// plain names and value vectors, no *Table pointers — so it can be
// serialised and replayed against a recovered catalog.
type CommitRecord struct {
	// Seq is the catalog-wide commit sequence number of the statement,
	// assigned under the write lock.
	Seq          uint64
	Kind         CommitKind
	Schema, Name string

	// Cols holds the column definitions (CommitCreate).
	Cols []ColDef

	// Inserts maps column name to the per-column insert delta
	// (CommitInsert); FirstOid/NumRows locate the appended rows.
	Inserts  map[string]bat.Vector
	FirstOid bat.Oid
	NumRows  int

	// Deleted holds the tombstoned oids (CommitDelete).
	Deleted []bat.Oid
}

// SetCommitHook installs the durability hook. The hook is called for
// every committed statement while the catalog write lock is held, so
// its invocation order equals commit order. Pass nil to detach.
func (c *Catalog) SetCommitHook(h func(CommitRecord)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.commitHook = h
}

// CommitSeq returns the catalog-wide commit sequence number.
func (c *Catalog) CommitSeq() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.commitSeq
}

// RestoreCommitSeq sets the commit sequence during recovery, before
// WAL replay re-applies the statements the last snapshot missed.
func (c *Catalog) RestoreCommitSeq(seq uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.commitSeq = seq
}

// Stamp identifies one committed version of a table: the commit
// sequence at which the table was created — a dropped-and-recreated
// table restarts its update counter, and the creation stamp keeps the
// two apart — and the table's committed-update counter.
type Stamp struct {
	Created uint64
	Version int64
}

// Snapshot is one committed version of a table: the version's Stamp,
// published length and tombstones. Vectors are immutable below their
// published length and a delete publishes a new tombstone list, so a
// snapshot reads its version for as long as it is held, whatever
// commits land after it (Column.BindAt, Table.BindIdxAt).
type Snapshot struct {
	Table *Table
	Stamp Stamp

	nrows   int
	deleted []bat.Oid
	live    *liveOids // nil over a dense version
}

// Len returns the number of live rows at the version.
func (s Snapshot) Len() int { return s.nrows - len(s.deleted) }

// Pin returns the current version of the table named by its
// schema-qualified name; false when there is no such table.
func (c *Catalog) Pin(qname string) (Snapshot, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t := c.tables[qname]
	if t == nil {
		return Snapshot{}, false
	}
	return t.snapshotLocked(), true
}

// snapshotLocked captures the table's current version. Caller holds
// the catalog lock.
func (t *Table) snapshotLocked() Snapshot {
	return Snapshot{
		Table:   t,
		Stamp:   Stamp{Created: t.created, Version: t.Version},
		nrows:   t.nrows,
		deleted: t.deleted,
		live:    t.live,
	}
}

// UpdateListener observes committed changes to persistent tables. The
// recycler registers one to keep the recycle pool synchronised.
//
// A table's commits are delivered one at a time and in commit order
// (Table.commitMu), each after its mutation became visible, to the
// listeners registered when it was applied. Between the two a query may
// already read the new version while a listener has not caught up; the
// recycler's version compare is what keeps such a query away from the
// entries the listener is about to bring up to date.
type UpdateListener interface {
	// OnUpdate is called once per committed DML statement with the
	// table changed, its new version, the per-column insert deltas
	// (may be nil) and the deleted oids (may be empty).
	OnUpdate(ev UpdateEvent)
	// OnDrop is called when a table is dropped.
	OnDrop(table *Table)
}

// UpdateEvent describes one committed DML statement.
type UpdateEvent struct {
	// Snapshot is the table version the statement produced (Table,
	// Stamp); a CommitInvalidate event carries the version the table
	// was left at.
	Snapshot
	// Kind classifies the statement: CommitInsert (Append),
	// CommitDelete (Delete) or CommitInvalidate (a mutation that
	// panicked partway; listeners must treat every dependent
	// intermediate as unknown).
	Kind CommitKind
	// Inserts maps column name to the insert delta BAT (head: fresh
	// oids, tail: appended values). Nil when the statement only
	// deleted rows.
	Inserts map[string]*bat.BAT
	// Deleted holds the oids removed by the statement, ascending and
	// distinct.
	Deleted []bat.Oid
}

// New creates an empty catalog.
func New() *Catalog {
	return &Catalog{tables: make(map[string]*Table)}
}

// AddListener registers an update listener.
func (c *Catalog) AddListener(l UpdateListener) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.listeners = append(c.listeners, l)
}

// RemoveListener unregisters a listener. Benchmarks that cycle many
// recycler configurations over one catalog use it so retired pools
// stop receiving (and surviving for) update notifications.
func (c *Catalog) RemoveListener(l UpdateListener) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, x := range c.listeners {
		if x == l {
			c.listeners = append(c.listeners[:i], c.listeners[i+1:]...)
			return
		}
	}
}

// listenersLocked copies the registered listeners for notification
// after the lock is released. Caller holds c.mu (read or write).
func (c *Catalog) listenersLocked() []UpdateListener {
	return append([]UpdateListener(nil), c.listeners...)
}

func key(schema, name string) string { return schema + "." + name }

// CreateTable registers a new table with the given column definitions.
func (c *Catalog) CreateTable(schema, name string, cols []ColDef) *Table {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &Table{
		Schema:    schema,
		Name:      name,
		qname:     key(schema, name),
		catalog:   c,
		colByName: make(map[string]*Column, len(cols)),
	}
	for _, d := range cols {
		col := &Column{Table: t, Name: d.Name, KindOf: d.Kind, Data: bat.EmptyVector(d.Kind), Sorted: d.Sorted}
		t.Cols = append(t.Cols, col)
		t.colByName[d.Name] = col
	}
	c.tables[key(schema, name)] = t
	c.commitSeq++
	t.created = c.commitSeq
	if c.commitHook != nil {
		c.commitHook(CommitRecord{
			Seq: c.commitSeq, Kind: CommitCreate, Schema: schema, Name: name,
			Cols: append([]ColDef(nil), cols...),
		})
	}
	return t
}

// DropTable removes a table and notifies listeners.
func (c *Catalog) DropTable(schema, name string) {
	t := c.Table(schema, name)
	if t == nil {
		return
	}
	t.commitMu.Lock()
	defer t.commitMu.Unlock()
	var ls []UpdateListener
	c.mu.Lock()
	// A recreated table under the same name is not ours to drop, and a
	// concurrent drop may have won the race.
	if cur := c.tables[key(schema, name)]; cur == t {
		ls = c.listenersLocked()
		delete(c.tables, key(schema, name))
		c.commitSeq++
		if c.commitHook != nil {
			c.commitHook(CommitRecord{Seq: c.commitSeq, Kind: CommitDrop, Schema: schema, Name: name})
		}
	}
	c.mu.Unlock()
	for _, l := range ls {
		l.OnDrop(t)
	}
}

// Table returns the named table or nil.
func (c *Catalog) Table(schema, name string) *Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.tables[key(schema, name)]
}

// MustTable returns the named table or panics.
func (c *Catalog) MustTable(schema, name string) *Table {
	t := c.Table(schema, name)
	if t == nil {
		panic(fmt.Sprintf("catalog: unknown table %s.%s", schema, name))
	}
	return t
}

// Tables returns all tables in deterministic order.
func (c *Catalog) Tables() []*Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.tables))
	for n := range c.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*Table, len(names))
	for i, n := range names {
		out[i] = c.tables[n]
	}
	return out
}

// ColDef describes a column at table-creation time.
type ColDef struct {
	Name   string
	Kind   bat.Kind
	Sorted bool // declared sorted (e.g. dense surrogate keys)
}

// Table is a persistent relational table stored column-wise.
type Table struct {
	Schema, Name string
	qname        string

	// Cols holds the columns in definition order.
	Cols []*Column

	catalog   *Catalog
	colByName map[string]*Column

	// commitMu serialises the table's DML statements from mutation to
	// listener notification, so listeners see commits one at a time and
	// in commit order: whatever a listener derived from the previous
	// commit is exactly the state the next one's delta applies to.
	commitMu sync.Mutex

	nrows int
	// deleted holds the tombstoned oids in ascending order. A delete
	// replaces the slice rather than editing it (snapshots and exports
	// share it).
	deleted []bat.Oid
	// live caches the complement of deleted in [0, nrows), the head of
	// every bind at a version with the current tombstones: each delete
	// starts an empty cache, which the first bind that reads it fills
	// and every append extends. Nil over a dense table. The columns
	// cache the matching tails (Column.live).
	live *liveOids

	// Version counts committed updates (see Stamp).
	Version int64

	// created is the catalog commit sequence at which the table was
	// created — a durable identity distinguishing a table from a later
	// re-creation under the same name (see Stamp).
	created uint64

	keyIndexes map[string]map[int64]bat.Oid // unique int key column -> oid
	joinIdx    map[string]*joinIndex        // FK join indices by name
}

// QName returns the schema-qualified table name.
func (t *Table) QName() string { return t.qname }

// Column returns the named column or nil.
func (t *Table) Column(name string) *Column { return t.colByName[name] }

// MustColumn returns the named column or panics.
func (t *Table) MustColumn(name string) *Column {
	c := t.colByName[name]
	if c == nil {
		panic(fmt.Sprintf("catalog: unknown column %s.%s", t.QName(), name))
	}
	return c
}

// NumRows returns the number of live rows.
func (t *Table) NumRows() int {
	t.catalog.mu.RLock()
	defer t.catalog.mu.RUnlock()
	return t.nrows - len(t.deleted)
}

// HasDeletes reports whether the table carries tombstones.
func (t *Table) HasDeletes() bool {
	t.catalog.mu.RLock()
	defer t.catalog.mu.RUnlock()
	return len(t.deleted) > 0
}

// Column is one typed column of a table.
type Column struct {
	Table  *Table
	Name   string
	KindOf bat.Kind
	// Data holds the committed values; row oid i maps to Data[i].
	// Deleted rows keep their slot (tombstoned via Table.deleted).
	// Storage is immutable below the published length and append-only
	// above it: Append writes the new rows past Data's length and
	// publishes a new header (bat.Extend), so every header handed out
	// earlier — bind views, exported states, pooled results, a
	// Snapshot's prefix — keeps its length and values. Nothing rewrites
	// a published slot.
	Data bat.Vector
	// Sorted is a declared property enabling view-based range selects.
	Sorted bool

	// live caches, while the table has tombstones, Data without the
	// dead slots: the tail of every bind at a version with the current
	// tombstones. Like Table.live it is built by the first bind that
	// materialises there, extended in place by an append and dropped by
	// a delete, so only the columns queries actually read pay for it,
	// once per delete at most. Nil until then and over a dense table.
	live atomic.Pointer[liveTail]
}

// liveTail boxes a column's live tail for the atomic pointer.
type liveTail struct{ bat.Vector }

// liveOids caches the live oids of one tombstone list (Table.live).
// The first bind that reads it fills it, under the shared lock, hence
// the atomic; the versions that share the list slice it to their
// length.
type liveOids struct{ atomic.Pointer[bat.Oids] }

// QName returns the fully qualified column name.
func (c *Column) QName() string { return c.Table.QName() + "." + c.Name }

// Bind returns a BAT over the live rows of the column's current
// version; BindAt reads a pinned one.
func (c *Column) Bind() *bat.BAT {
	t := c.Table
	t.catalog.mu.RLock()
	defer t.catalog.mu.RUnlock()
	return c.bindLocked(t.snapshotLocked())
}

// BindAt returns a BAT over the live rows of the column at snapshot s
// (a snapshot of the column's table) without copying: over a dense
// version a dense-headed view of the column's first s rows, over one
// with the current tombstones a view of the table's live-oid list
// heading a view of the column's live tail (each built by the first
// bind that needs it since the last delete). Only a bind whose
// snapshot predates a delete copies: its version's head and tail are
// rebuilt from the column.
func (c *Column) BindAt(s Snapshot) *bat.BAT {
	c.Table.catalog.mu.RLock()
	defer c.Table.catalog.mu.RUnlock()
	return c.bindLocked(s)
}

func (c *Column) bindLocked(s Snapshot) *bat.BAT {
	t := c.Table
	var b *bat.BAT
	switch {
	case s.live == nil:
		// The tail is a view over the committed column: binding
		// materialises nothing, so recycle pool accounting must not
		// charge the column's storage to the bind intermediate.
		b = bat.New(bat.NewDense(0, s.nrows), c.Data.Slice(0, s.nrows))
	case s.live == t.live:
		// No delete since s: the current caches extend s's rows.
		tail := c.live.Load()
		if tail == nil {
			// Commits are locked out, so concurrent first binds build
			// equal tails; whichever is published first is kept.
			c.live.CompareAndSwap(nil, &liveTail{bat.Drop(c.Data, t.deleted)})
			tail = c.live.Load()
		}
		b = s.liveBAT(s.liveLocked(), tail.Slice(0, s.Len()))
	default:
		b = s.liveBAT(s.liveLocked(), bat.Drop(c.Data.Slice(0, s.nrows), s.deleted))
	}
	// Sortedness only ever clears, so a sorted column was sorted at s.
	b.TailSorted = c.Sorted
	return b
}

// liveLocked returns the live oids of the version, which has
// tombstones, as a list the caller slices to the version's length: its
// tombstone list's cache, filled here when the list is still the
// table's and no bind has read it yet. A list a delete has since
// replaced is rebuilt for the caller alone unless it was filled while
// current (appends kept it covering every version that shares it).
// Caller holds the catalog lock.
func (s Snapshot) liveLocked() *bat.Oids {
	if l := s.live.Load(); l != nil {
		return l
	}
	t := s.Table
	if s.live != t.live {
		return bat.Drop(bat.NewDense(0, s.nrows), s.deleted).(*bat.Oids)
	}
	// As for a column's live tail: equal lists, the first one kept.
	s.live.CompareAndSwap(nil, bat.Drop(bat.NewDense(0, t.nrows), t.deleted).(*bat.Oids))
	return s.live.Load()
}

// liveBAT heads one value per live row of the version with its live
// oids, the first s.Len() of live. The version has tombstones.
func (s Snapshot) liveBAT(live *bat.Oids, tail bat.Vector) *bat.BAT {
	b := bat.New(live.Slice(0, s.Len()), tail)
	b.HeadSorted = true
	b.KeyUnique = true
	return b
}

// Row is a tuple addressed by column name, used by bulk loads and DML.
type Row map[string]any

// commitLocked finalises one DML statement under the write lock,
// bumping both the table's version and the catalog-wide commit
// sequence (the durable commit epoch).
func (t *Table) commitLocked() {
	t.Version++
	t.catalog.commitSeq++
}

// hookLocked delivers a commit record to the durability hook, under
// the write lock and after commitLocked assigned the sequence number.
func (t *Table) hookLocked(rec CommitRecord) {
	if t.catalog.commitHook == nil {
		return
	}
	rec.Seq = t.catalog.commitSeq
	rec.Schema, rec.Name = t.Schema, t.Name
	t.catalog.commitHook(rec)
}

// Append inserts rows and commits them as one update event.
// It returns the oid of the first inserted row. The rows land past the
// columns' published length (see Column.Data), so the commit costs the
// rows it adds, not the rows the table holds; a load into an empty
// table adopts the row vectors as the columns, with no slack.
func (t *Table) Append(rows []Row) bat.Oid {
	if len(rows) == 0 {
		t.catalog.mu.RLock()
		defer t.catalog.mu.RUnlock()
		return bat.Oid(t.nrows)
	}
	t.commitMu.Lock()
	defer t.commitMu.Unlock()
	var ls []UpdateListener
	var ev UpdateEvent
	committed := false
	defer t.completeNotify(&ls, &committed, &ev)
	// The mutation runs under a deferred unlock so a panic (e.g. a row
	// value of the wrong type) cannot leave the catalog locked forever.
	first := func() bat.Oid {
		t.catalog.mu.Lock()
		defer t.catalog.mu.Unlock()
		ls = t.catalog.listenersLocked()
		first := bat.Oid(t.nrows)
		// Every column's values are typed before any column or
		// dictionary moves: a row value of the wrong type panics here,
		// with the table untouched.
		deltas := make([]bat.Vector, len(t.Cols))
		strs := make([][]string, len(t.Cols))
		for i, c := range t.Cols {
			if c.KindOf == bat.KStr {
				strs[i] = valuesOf[string](rows, c.Name)
			} else {
				deltas[i] = buildDelta(c.KindOf, rows, c.Name)
			}
		}
		inserts := make(map[string]*bat.BAT, len(t.Cols))
		var logged map[string]bat.Vector
		if t.catalog.commitHook != nil {
			logged = make(map[string]bat.Vector, len(t.Cols))
		}
		for i, c := range t.Cols {
			delta := deltas[i]
			if strs[i] != nil {
				delta = c.encode(strs[i])
			}
			if c.Sorted {
				c.Sorted = staysSorted(c.Data, delta)
			}
			if c.Data.Len() == 0 {
				c.Data = delta
			} else {
				c.Data = bat.Extend(c.Data, delta)
			}
			if tail := c.live.Load(); tail != nil {
				c.live.Store(&liveTail{bat.Extend(tail.Vector, delta)})
			}
			inserts[c.Name] = bat.New(bat.NewDense(first, len(rows)), delta)
			if logged != nil {
				logged[c.Name] = delta
			}
		}
		if t.live != nil {
			if l := t.live.Load(); l != nil {
				t.live.Store(bat.Extend(l, bat.NewDense(first, len(rows))).(*bat.Oids))
			}
		}
		t.nrows += len(rows)
		t.maintainIndexesOnAppend(first, rows)
		t.commitLocked()
		ev = UpdateEvent{Snapshot: t.snapshotLocked(), Kind: CommitInsert, Inserts: inserts}
		t.hookLocked(CommitRecord{Kind: CommitInsert, Inserts: logged, FirstOid: first, NumRows: len(rows)})
		return first
	}()
	committed = true
	return first
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

// buildDelta types the column's values of rows, for every kind but
// strings, which encode.
func buildDelta(k bat.Kind, rows []Row, col string) bat.Vector {
	switch k {
	case bat.KInt:
		return bat.NewInts(valuesOf[int64](rows, col))
	case bat.KFloat:
		return bat.NewFloats(valuesOf[float64](rows, col))
	case bat.KDate:
		return bat.NewDates(valuesOf[bat.Date](rows, col))
	case bat.KOid:
		return bat.NewOids(valuesOf[bat.Oid](rows, col))
	case bat.KBool:
		return bat.NewBools(valuesOf[bool](rows, col))
	}
	panic("catalog: delta of unsupported kind")
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

// encode returns a string column's delta. Its values are encoded into
// the column's dictionary, so the delta, the column, its live tail and
// every listener share one set of codes; a load into an empty column
// brings a dictionary of its own.
func (c *Column) encode(v []string) bat.Vector {
	if s := c.Data.(*bat.Strings); s.Len() > 0 {
		return bat.StringsOf(s.D.Encode(v), s.D)
	}
	return bat.NewStrings(v)
}

// Delete tombstones the given oids and commits one update event, which
// reports the rows actually removed in ascending oid order. It costs
// the rows it removes and the tombstone list it extends: the live-oid
// list and the columns' live tails are dropped, and the next bind that
// reads them rebuilds them (Column.BindAt).
func (t *Table) Delete(oids []bat.Oid) {
	if len(oids) == 0 {
		return
	}
	really := slices.Clone(oids)
	slices.Sort(really)
	really = slices.Compact(really)
	t.commitMu.Lock()
	defer t.commitMu.Unlock()
	var ls []UpdateListener
	var ev UpdateEvent
	committed := false
	defer t.completeNotify(&ls, &committed, &ev)
	func() {
		t.catalog.mu.Lock()
		defer t.catalog.mu.Unlock()
		really = slices.DeleteFunc(really, func(o bat.Oid) bool {
			_, dead := slices.BinarySearch(t.deleted, o)
			return dead || o >= bat.Oid(t.nrows)
		})
		if len(really) == 0 {
			return
		}
		ls = t.catalog.listenersLocked()
		t.deleted = mergeOids(t.deleted, really)
		t.live = new(liveOids)
		for _, c := range t.Cols {
			c.live.Store(nil)
		}
		t.commitLocked()
		ev = UpdateEvent{Snapshot: t.snapshotLocked(), Kind: CommitDelete, Deleted: really}
		t.dropPostingsLocked(ev.Stamp)
		t.hookLocked(CommitRecord{Kind: CommitDelete, Deleted: really})
		committed = true
	}()
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

// completeNotify delivers a statement to the listeners copied when its
// mutation took the write lock, from a deferred context, after the
// lock is released: normally when the mutation committed, and as a
// full-table invalidation event when it panicked partway (columns may
// be partially applied, so every dependent intermediate must go).
func (t *Table) completeNotify(ls *[]UpdateListener, committed *bool, ev *UpdateEvent) {
	if len(*ls) == 0 {
		return
	}
	if !*committed {
		t.catalog.mu.RLock()
		snap := t.snapshotLocked()
		t.catalog.mu.RUnlock()
		*ev = UpdateEvent{Snapshot: snap, Kind: CommitInvalidate}
	}
	for _, l := range *ls {
		l.OnUpdate(*ev)
	}
}

// DefineKeyIndex builds a unique key index on an int column, mapping
// key value to row oid. Needed for FK join index maintenance and for
// delete-by-key workloads (TPC-H refresh functions).
func (t *Table) DefineKeyIndex(col string) {
	t.catalog.mu.Lock()
	defer t.catalog.mu.Unlock()
	t.defineKeyIndexLocked(col)
}

func (t *Table) defineKeyIndexLocked(col string) {
	c := t.MustColumn(col)
	data := c.Data.(*bat.Ints)
	idx := make(map[int64]bat.Oid, data.Len())
	for i, v := range data.V {
		idx[v] = bat.Oid(i)
	}
	if t.keyIndexes == nil {
		t.keyIndexes = make(map[string]map[int64]bat.Oid)
	}
	t.keyIndexes[col] = idx
}

// HasKeyIndex reports whether col carries a unique key index, i.e.
// whether LookupKey may be asked about it.
func (t *Table) HasKeyIndex(col string) bool {
	t.catalog.mu.RLock()
	defer t.catalog.mu.RUnlock()
	return t.keyIndexes[col] != nil
}

// LookupKey returns the oid of the live row whose key column equals v.
func (t *Table) LookupKey(col string, v int64) (bat.Oid, bool) {
	t.catalog.mu.RLock()
	defer t.catalog.mu.RUnlock()
	idx := t.keyIndexes[col]
	if idx == nil {
		panic(fmt.Sprintf("catalog: no key index on %s.%s", t.QName(), col))
	}
	o, ok := idx[v]
	if ok {
		if _, dead := slices.BinarySearch(t.deleted, o); dead {
			return 0, false
		}
	}
	return o, ok
}

// DefineJoinIndex builds a foreign-key join index named idxName: for
// every row of t, the oid of the parent row whose key column matches
// the child's FK column, NilOid where none does. Plans access it via
// sql.bindIdxbat, avoiding a value join (paper §2.2). Appends extend
// it in place; a delete leaves it alone (binds drop the tombstoned
// rows). A bind at a version without tombstones also carries the
// index's postings (bat.Postings, child rows per parent oid), built by
// the first join that asks and kept for that one version, so an oid
// join against a few parents reads their children instead of every
// child row (algebra.Join). The first delete drops them for good:
// every later version has tombstones. Postings are not counted in a
// bind's ByteSize, so a pooled bind keeps its version's postings (up
// to 12 bytes per child row) alive outside the recycler's byte cap.
func (t *Table) DefineJoinIndex(idxName, fkCol string, parent *Table, parentKeyCol string) {
	t.catalog.mu.Lock()
	defer t.catalog.mu.Unlock()
	if parent.keyIndexes == nil || parent.keyIndexes[parentKeyCol] == nil {
		parent.defineKeyIndexLocked(parentKeyCol)
	}
	ix := &joinIndex{fkCol: fkCol, parent: parent, parentKey: parentKeyCol}
	ix.extend(t.MustColumn(fkCol).Data.(*bat.Ints).V)
	if t.joinIdx == nil {
		t.joinIdx = make(map[string]*joinIndex)
	}
	t.joinIdx[idxName] = ix
}

// joinIndex is one FK join index and its definition.
type joinIndex struct {
	oids      []bat.Oid // child row -> parent oid, appended in place
	fkCol     string
	parent    *Table
	parentKey string
	// post is the postings handle of one table version, replaced by
	// the first bind at a newer version without tombstones, and by a
	// marker without one when a delete commits.
	post atomic.Pointer[versionPostings]
}

// dropPostingsLocked releases the index postings when a delete commits
// at stamp: a version with tombstones never carries them, and an older
// snapshot's bind finds the newer stamp and gets none. Caller holds the
// write lock.
func (t *Table) dropPostingsLocked(stamp Stamp) {
	for _, ix := range t.joinIdx {
		ix.post.Store(&versionPostings{stamp: stamp})
	}
}

// versionPostings pairs a postings handle with the version it inverts;
// a nil handle marks the delete that dropped the postings.
type versionPostings struct {
	stamp Stamp
	h     *bat.LazyPostings
}

// extend appends the parent oids of the given FK values. Caller holds
// the write lock.
func (ix *joinIndex) extend(fks []int64) {
	pIdx := ix.parent.keyIndexes[ix.parentKey]
	for _, v := range fks {
		o, ok := pIdx[v]
		if !ok {
			o = bat.NilOid
		}
		ix.oids = append(ix.oids, o)
	}
}

// tailAt returns the index's first s.nrows parent oids. The index
// grows by in-place append like the columns do; clipping the capacity
// keeps that room out of the bind's reach. The tail carries the
// version's postings handle unless a newer version already holds the
// cache; the handle is built lazily, outside the catalog lock.
func (ix *joinIndex) tailAt(s Snapshot) *bat.Oids {
	v := ix.oids[:s.nrows:s.nrows]
	for {
		cur := ix.post.Load()
		switch {
		case cur != nil && cur.stamp == s.Stamp:
			return bat.NewOidsWithPostings(v, cur.h)
		case cur != nil && cur.stamp.Version > s.Stamp.Version:
			return bat.NewOids(v)
		}
		// Publish this version's handle; when a racing bind publishes
		// first, the next round reads whichever won.
		ix.post.CompareAndSwap(cur, &versionPostings{stamp: s.Stamp, h: bat.NewLazyPostings(v)})
	}
}

// JoinIndexParent returns the parent table of a join index, or nil.
// The recycler uses it to derive invalidation dependencies for
// bindIdxbat intermediates.
func (t *Table) JoinIndexParent(idxName string) *Table {
	t.catalog.mu.RLock()
	defer t.catalog.mu.RUnlock()
	ix, ok := t.joinIdx[idxName]
	if !ok {
		return nil
	}
	return ix.parent
}

// BindIdx returns the join index as a BAT (child oid -> parent oid)
// at the table's current version; BindIdxAt reads a pinned one.
func (t *Table) BindIdx(idxName string) *bat.BAT {
	t.catalog.mu.RLock()
	defer t.catalog.mu.RUnlock()
	return t.bindIdxLocked(t.snapshotLocked(), idxName)
}

// BindIdxAt returns the join index at snapshot s of the table, the
// engine's sql.bindIdxbat. Tombstoned child rows are filtered out.
func (t *Table) BindIdxAt(s Snapshot, idxName string) *bat.BAT {
	t.catalog.mu.RLock()
	defer t.catalog.mu.RUnlock()
	return t.bindIdxLocked(s, idxName)
}

func (t *Table) bindIdxLocked(s Snapshot, idxName string) *bat.BAT {
	ix, ok := t.joinIdx[idxName]
	if !ok {
		panic(fmt.Sprintf("catalog: unknown join index %s on %s", idxName, t.QName()))
	}
	return ix.bindLocked(s)
}

// bindLocked binds the index at snapshot s of its table. Caller holds
// the catalog lock.
func (ix *joinIndex) bindLocked(s Snapshot) *bat.BAT {
	if s.live == nil {
		return bat.New(bat.NewDense(0, s.nrows), ix.tailAt(s))
	}
	return s.liveBAT(s.liveLocked(), bat.Drop(bat.NewOids(ix.oids[:s.nrows:s.nrows]), s.deleted))
}

// maintainIndexesOnAppend brings the key and join indexes up to the
// appended rows. Key index entries of tombstoned rows are filtered by
// LookupKey and join index rows by the binds, so deletes need none.
func (t *Table) maintainIndexesOnAppend(first bat.Oid, rows []Row) {
	for col, idx := range t.keyIndexes {
		for i, r := range rows {
			idx[r[col].(int64)] = first + bat.Oid(i)
		}
	}
	for _, ix := range t.joinIdx {
		fks := make([]int64, len(rows))
		for i, r := range rows {
			fks[i] = r[ix.fkCol].(int64)
		}
		ix.extend(fks)
	}
}

// --- durable export / import ------------------------------------------

// JoinIndexDef names a join index by plain strings, so checkpoint
// metadata can round-trip without table pointers. The index array
// itself is not exported: DefineJoinIndex rebuilds it deterministically
// from the recovered column data.
type JoinIndexDef struct {
	Name, FKCol, ParentSchema, ParentName, ParentKey string
}

// TableState is a consistent export of one table's durable state, the
// unit a checkpoint serialises. Data and Deleted hold references to
// the committed storage: appends write only past the length the
// exported headers carry and deletes replace the tombstone list, so
// what an export can reach is immutable under concurrent DML.
type TableState struct {
	Schema, Name string
	// Cols carries the definitions with their *current* Sorted flags
	// (appends may have cleared a declared sortedness).
	Cols []ColDef
	// Data holds the committed vectors, one per column, in Cols order.
	// Length equals NRows (tombstoned rows keep their slots).
	Data []bat.Vector
	// NRows counts committed rows including tombstoned ones.
	NRows int
	// Deleted lists the tombstoned oids in ascending order.
	Deleted []bat.Oid
	// Version is the table's committed-update counter.
	Version int64
	// Created is the commit sequence at which the table was created
	// (the durable half of Stamp).
	Created uint64
	// KeyIndexCols names the unique key indexes to rebuild.
	KeyIndexCols []string
	// JoinIndexes names the FK join indexes to rebuild.
	JoinIndexes []JoinIndexDef
}

// ExportState captures every table's durable state plus the commit
// sequence, consistently under one shared-lock acquisition. Checkpoint
// writers serialise the result after the lock is released.
func (c *Catalog) ExportState() ([]TableState, uint64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.tables))
	for n := range c.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]TableState, 0, len(names))
	for _, n := range names {
		t := c.tables[n]
		ts := TableState{
			Schema:  t.Schema,
			Name:    t.Name,
			NRows:   t.nrows,
			Deleted: t.deleted,
			Version: t.Version,
			Created: t.created,
		}
		for _, col := range t.Cols {
			ts.Cols = append(ts.Cols, ColDef{Name: col.Name, Kind: col.KindOf, Sorted: col.Sorted})
			ts.Data = append(ts.Data, col.Data)
		}
		for col := range t.keyIndexes {
			ts.KeyIndexCols = append(ts.KeyIndexCols, col)
		}
		sort.Strings(ts.KeyIndexCols)
		for name, ix := range t.joinIdx {
			ts.JoinIndexes = append(ts.JoinIndexes, JoinIndexDef{
				Name: name, FKCol: ix.fkCol,
				ParentSchema: ix.parent.Schema, ParentName: ix.parent.Name,
				ParentKey: ix.parentKey,
			})
		}
		sort.Slice(ts.JoinIndexes, func(i, j int) bool { return ts.JoinIndexes[i].Name < ts.JoinIndexes[j].Name })
		out = append(out, ts)
	}
	return out, c.commitSeq
}

// ImportTable recreates a table from exported state during recovery:
// data, tombstones, version and key indexes are restored without
// notifying listeners or the commit hook, and without advancing the
// commit sequence (RestoreCommitSeq sets it explicitly). Join indexes
// are not rebuilt here — the caller re-issues DefineJoinIndex once all
// tables are imported, since parents may import later.
func (c *Catalog) ImportTable(ts TableState) (*Table, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.tables[key(ts.Schema, ts.Name)]; dup {
		return nil, fmt.Errorf("catalog: import of existing table %s.%s", ts.Schema, ts.Name)
	}
	if len(ts.Cols) != len(ts.Data) {
		return nil, fmt.Errorf("catalog: import of %s.%s: %d defs, %d vectors", ts.Schema, ts.Name, len(ts.Cols), len(ts.Data))
	}
	t := &Table{
		Schema:    ts.Schema,
		Name:      ts.Name,
		qname:     key(ts.Schema, ts.Name),
		catalog:   c,
		colByName: make(map[string]*Column, len(ts.Cols)),
		nrows:     ts.NRows,
		Version:   ts.Version,
		created:   ts.Created,
	}
	for i, d := range ts.Cols {
		if ts.Data[i].Len() != ts.NRows {
			return nil, fmt.Errorf("catalog: import of %s.%s.%s: %d values for %d rows", ts.Schema, ts.Name, d.Name, ts.Data[i].Len(), ts.NRows)
		}
		// A view: the importer owns none of the room the exporting
		// catalog's columns may still be appending into.
		col := &Column{Table: t, Name: d.Name, KindOf: d.Kind, Data: ts.Data[i].Slice(0, ts.NRows), Sorted: d.Sorted}
		t.Cols = append(t.Cols, col)
		t.colByName[d.Name] = col
	}
	if len(ts.Deleted) > 0 {
		t.deleted = slices.Clone(ts.Deleted)
		slices.Sort(t.deleted)
		t.deleted = slices.Compact(t.deleted)
		if last := t.deleted[len(t.deleted)-1]; last >= bat.Oid(ts.NRows) {
			return nil, fmt.Errorf("catalog: import of %s.%s: tombstone %d beyond %d rows", ts.Schema, ts.Name, last, ts.NRows)
		}
		t.live = new(liveOids)
	}
	for _, col := range ts.KeyIndexCols {
		t.defineKeyIndexLocked(col)
	}
	c.tables[key(ts.Schema, ts.Name)] = t
	return t, nil
}
