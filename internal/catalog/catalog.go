package catalog

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/bat"
)

// Catalog is the collection of tables, keyed by schema-qualified name.
//
// A table's committed state is one immutable value, its version
// (Table.cur). A commit builds the next version aside from the current
// one and publishes it with one pointer store under the catalog's write
// lock, then notifies the update listeners after the lock is released —
// they may freely read the catalog, and pool maintenance therefore
// lands momentarily after the commit itself. A statement that fails
// before the store (a column of the wrong kind or length) changes
// nothing: not the table, not the log, and no listener hears of it.
//
// Readers of a version take no lock: the binds, Ref.Rows and RowsAt,
// NumRows, HasDeletes and the Snapshot Pin returns. The lock (mu)
// guards the table map, the listeners, the commit sequence and the key
// indexes: DDL and DML take it exclusively; name and key lookups,
// ExportState's consistent cut and the one read that fills a cache of
// a version (Table.fill) take it shared.
//
// Isolation is per query. A query reads each table at one version, a
// Snapshot taken the first time it touches the table (mal.Ctx.Pin):
// every later bind of that query names its rows at the snapshot (Ref),
// and whatever reads them materialises them there, so two columns
// bound around a concurrent commit agree with each other. A snapshot
// costs nothing to keep, and the recycler compares its Stamp with the
// versions its entries were computed at, so the pool never mixes
// versions either. A commit costs the rows it moves: versions share
// their storage, and the live oids and the columns' live tails are
// caches of one tombstone list, filled by the first bind that reads
// them and started empty, not rebuilt, by a delete.
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
	// the catalog write lock*, immediately after the new version was
	// published — hook invocation order is therefore exactly commit
	// order, which is what a write-ahead log needs. The hook must be
	// fast and must not call back into the catalog.
	commitHook func(Commit)
}

// CommitKind enumerates the statement classes a Commit can describe.
type CommitKind uint8

// Commit kinds. The values are durable (WAL records carry them), so
// they are spelled out: 3 numbered in-place column updates and 5 a
// listener-only invalidation event, which nothing produces any more;
// both stay reserved so an old log holding one fails to decode rather
// than replaying as something else.
const (
	// CommitCreate records a CreateTable.
	CommitCreate CommitKind = 0
	// CommitInsert records an AppendColumns.
	CommitInsert CommitKind = 1
	// CommitDelete records a Delete.
	CommitDelete CommitKind = 2
	// CommitDrop records a DropTable.
	CommitDrop CommitKind = 4
)

// Commit describes one committed statement. The catalog builds it
// once, under its write lock, and hands the same value to the
// durability hook (SetCommitHook) and, for DML and drops, to every
// update listener. Its plain part — names and value vectors — is
// self-contained, so the log can serialise it and replay it against a
// recovered catalog.
type Commit struct {
	// Seq is the catalog-wide commit sequence number of the statement,
	// assigned under the write lock.
	Seq          uint64
	Kind         CommitKind
	Schema, Name string

	// Cols holds the column definitions (CommitCreate).
	Cols []ColDef

	// Inserts holds the insert delta, one vector per column in
	// Table.Cols order (CommitInsert); FirstOid and NumRows locate the
	// appended rows. Strings come in the codes of their column's
	// dictionary.
	Inserts  []bat.Vector
	FirstOid bat.Oid
	NumRows  int

	// Deleted holds the tombstoned oids, ascending and distinct
	// (CommitDelete).
	Deleted []bat.Oid

	// Snapshot is the version the statement published — a created
	// table's first, a dropped table's last. A commit decoded from the
	// log carries none.
	Snapshot
}

// SetCommitHook installs the durability hook. The hook is called for
// every committed statement while the catalog write lock is held, so
// its invocation order equals commit order. Pass nil to detach.
func (c *Catalog) SetCommitHook(h func(Commit)) {
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

// Pin returns the current version of the table named by its
// schema-qualified name; false when there is no such table.
func (c *Catalog) Pin(qname string) (Snapshot, bool) {
	c.mu.RLock()
	t := c.tables[qname]
	c.mu.RUnlock()
	if t == nil {
		return Snapshot{}, false
	}
	return t.snapshot(), true
}

// UpdateListener observes committed changes to persistent tables. The
// recycler registers one to keep the recycle pool synchronised.
//
// A table's commits are delivered one at a time and in commit order
// (Table.commitMu), each after its version was published, to the
// listeners registered when it was published; a statement that failed
// before publishing is delivered to none. Between the publish and the
// delivery a query may already read the new version while a listener
// has not caught up; the recycler's version compare is what keeps such
// a query away from the entries the listener is about to bring up to
// date.
type UpdateListener interface {
	// OnUpdate is called once per committed DML statement
	// (CommitInsert, CommitDelete) and once per dropped table
	// (CommitDrop), with the Commit the durability hook got.
	OnUpdate(c Commit)
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
	v := &version{stamp: Stamp{Created: c.commitSeq + 1}, cols: make([]colVersion, len(cols))}
	for i, d := range cols {
		t.addColumn(d)
		v.cols[i] = colVersion{data: bat.EmptyVector(d.Kind), sorted: d.Sorted}
	}
	t.cur.Store(v)
	c.tables[key(schema, name)] = t
	c.commitLocked(Commit{Kind: CommitCreate, Schema: schema, Name: name, Cols: slices.Clone(cols), Snapshot: t.snapshot()})
	return t
}

// DropTable removes a table and delivers a CommitDrop, which carries
// the table's last version.
func (c *Catalog) DropTable(schema, name string) {
	t := c.Table(schema, name)
	if t == nil {
		return
	}
	t.commitMu.Lock()
	defer t.commitMu.Unlock()
	var ls []UpdateListener
	cm := Commit{Kind: CommitDrop, Schema: schema, Name: name, Snapshot: t.snapshot()}
	c.mu.Lock()
	// A recreated table under the same name is not ours to drop, and a
	// concurrent drop may have won the race.
	if cur := c.tables[key(schema, name)]; cur == t {
		delete(c.tables, key(schema, name))
		cm, ls = c.commitLocked(cm)
	}
	c.mu.Unlock()
	for _, l := range ls {
		l.OnUpdate(cm)
	}
}

// commitLocked stamps cm with the next commit sequence, hands it to the
// durability hook and returns it with the listeners registered now,
// whom the caller notifies once the lock is released. Caller holds the
// write lock.
func (c *Catalog) commitLocked(cm Commit) (Commit, []UpdateListener) {
	c.commitSeq++
	cm.Seq = c.commitSeq
	if c.commitHook != nil {
		c.commitHook(cm)
	}
	return cm, slices.Clone(c.listeners)
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

	// commitMu serialises the table's DML statements from typing their
	// rows to listener notification, so listeners see commits one at a
	// time and in commit order: whatever a listener derived from the
	// previous commit is exactly the state the next one's delta applies
	// to.
	commitMu sync.Mutex

	// cur is the table's current version, replaced by every commit.
	cur atomic.Pointer[version]

	keyIndexes map[string]map[int64]bat.Oid // unique int key column -> oid
}

// addColumn appends column d to the table's definition.
func (t *Table) addColumn(d ColDef) {
	col := &Column{Table: t, Name: d.Name, KindOf: d.Kind, pos: len(t.Cols)}
	t.Cols = append(t.Cols, col)
	t.colByName[d.Name] = col
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

// Column is one typed column of a table. Its values live on the
// table's versions (version.cols).
type Column struct {
	Table  *Table
	Name   string
	KindOf bat.Kind
	pos    int // in Table.Cols
}

// QName returns the fully qualified column name.
func (c *Column) QName() string { return c.Table.QName() + "." + c.Name }

// DefineKeyIndex builds a unique key index on an int column, mapping
// key value to row oid. Needed for FK join index maintenance and for
// delete-by-key workloads (TPC-H refresh functions).
func (t *Table) DefineKeyIndex(col string) {
	t.catalog.mu.Lock()
	defer t.catalog.mu.Unlock()
	t.defineKeyIndexLocked(col)
}

func (t *Table) defineKeyIndexLocked(col string) {
	data := t.cur.Load().cols[t.MustColumn(col).pos].data.(*bat.Ints)
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
		if _, dead := slices.BinarySearch(t.cur.Load().deleted(), o); dead {
			return 0, false
		}
	}
	return o, ok
}

// DefineJoinIndex builds a foreign-key join index named idxName: for
// every row of t, the oid of the parent row whose key column matches
// the child's FK column, NilOid where none does. Plans access it via
// sql.bindIdxbat, avoiding a value join (paper §2.2). Every version
// carries the index's rows (joinTail): appends extend them in place,
// and a delete leaves them alone (binds drop the tombstoned rows). It
// publishes a version with the index, at the current stamp.
func (t *Table) DefineJoinIndex(idxName, fkCol string, parent *Table, parentKeyCol string) {
	t.catalog.mu.Lock()
	defer t.catalog.mu.Unlock()
	cur := t.cur.Load()
	if cur.index(idxName) != nil {
		panic(fmt.Sprintf("catalog: join index %s on %s defined twice", idxName, t.QName()))
	}
	if parent.keyIndexes[parentKeyCol] == nil {
		parent.defineKeyIndexLocked(parentKeyCol)
	}
	ix := &joinIndex{name: idxName, pos: len(cur.idx), fkCol: fkCol, fkPos: t.MustColumn(fkCol).pos, parent: parent, parentKey: parentKeyCol}
	next := *cur
	next.idx = append(slices.Clip(cur.idx), ix.at(ix.extend(nil, cur.cols[ix.fkPos].data.(*bat.Ints).V), cur.tomb == nil))
	t.cur.Store(&next)
}

// joinIndex is the definition of one FK join index; its rows live on
// the table's versions (joinTail).
type joinIndex struct {
	name      string
	pos       int // in version.idx
	fkCol     string
	fkPos     int // in Table.Cols
	parent    *Table
	parentKey string
}

// extend appends to oids the parent oids of the given FK values.
// Caller holds the write lock, which guards the parent's key index.
func (ix *joinIndex) extend(oids []bat.Oid, fks []int64) []bat.Oid {
	pIdx := ix.parent.keyIndexes[ix.parentKey]
	for _, v := range fks {
		o, ok := pIdx[v]
		if !ok {
			o = bat.NilOid
		}
		oids = append(oids, o)
	}
	return oids
}

// at returns the index's rows at a version, oids, with a postings
// handle of their own when the version is dense.
func (ix *joinIndex) at(oids []bat.Oid, dense bool) joinTail {
	jt := joinTail{joinIndex: ix, oids: oids}
	if dense {
		jt.post = bat.NewLazyPostings(slices.Clip(oids))
	}
	return jt
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
		v := t.cur.Load()
		ts := TableState{
			Schema:  t.Schema,
			Name:    t.Name,
			NRows:   v.nrows,
			Deleted: v.deleted(),
			Version: v.stamp.Version,
			Created: v.stamp.Created,
		}
		for i, col := range t.Cols {
			ts.Cols = append(ts.Cols, ColDef{Name: col.Name, Kind: col.KindOf, Sorted: v.cols[i].sorted})
			ts.Data = append(ts.Data, v.cols[i].data)
		}
		for col := range t.keyIndexes {
			ts.KeyIndexCols = append(ts.KeyIndexCols, col)
		}
		sort.Strings(ts.KeyIndexCols)
		for _, ix := range v.idx {
			ts.JoinIndexes = append(ts.JoinIndexes, JoinIndexDef{
				Name: ix.name, FKCol: ix.fkCol,
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
	}
	v := &version{stamp: Stamp{Created: ts.Created, Version: ts.Version}, nrows: ts.NRows, cols: make([]colVersion, len(ts.Cols))}
	for i, d := range ts.Cols {
		if ts.Data[i].Len() != ts.NRows {
			return nil, fmt.Errorf("catalog: import of %s.%s.%s: %d values for %d rows", ts.Schema, ts.Name, d.Name, ts.Data[i].Len(), ts.NRows)
		}
		t.addColumn(d)
		// A view: the importer owns none of the room the exporting
		// catalog's columns may still be appending into.
		v.cols[i] = colVersion{data: ts.Data[i].Slice(0, ts.NRows), sorted: d.Sorted}
	}
	if len(ts.Deleted) > 0 {
		dead := slices.Compact(slices.Sorted(slices.Values(ts.Deleted)))
		if last := dead[len(dead)-1]; last >= bat.Oid(ts.NRows) {
			return nil, fmt.Errorf("catalog: import of %s.%s: tombstone %d beyond %d rows", ts.Schema, ts.Name, last, ts.NRows)
		}
		v.tomb = newTombstones(dead, len(ts.Cols))
	}
	t.cur.Store(v)
	for _, col := range ts.KeyIndexCols {
		t.defineKeyIndexLocked(col)
	}
	c.tables[key(ts.Schema, ts.Name)] = t
	return t, nil
}
