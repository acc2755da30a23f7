package catalog

import (
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/bat"
)

// Ref names the live rows of one column, or of one join index, at one
// version of its table: the engine's sql.bind and sql.bindIdxbat before
// anything reads them. Naming costs nothing. Rows materialises the rows
// at the version, once per Ref; Len and ByteSize answer without doing
// so, and RowsAt reads a few rows by oid. A Ref names one version
// for good: the same rows at another version are another Ref (At).
type Ref struct {
	snap Snapshot
	col  *Column    // nil for a join index
	ix   *joinIndex // nil for a column
	// rows holds the rows once a reader materialised them, so a pooled
	// bind read by many queries is materialised once.
	rows atomic.Pointer[bat.BAT]
}

// RefAt names the column's live rows at snapshot s of its table.
func (c *Column) RefAt(s Snapshot) *Ref { return &Ref{snap: s, col: c} }

// IdxRefAt names the live rows of join index idxName at snapshot s of
// the table; false when the table has no such index.
func (t *Table) IdxRefAt(s Snapshot, idxName string) (*Ref, bool) {
	ix := s.v.index(idxName)
	if ix == nil {
		return nil, false
	}
	return &Ref{snap: s, ix: ix}, true
}

// Snapshot returns the version the rows are named at.
func (r *Ref) Snapshot() Snapshot { return r.snap }

// At names the same rows at snapshot s of the same table.
func (r *Ref) At(s Snapshot) *Ref { return &Ref{snap: s, col: r.col, ix: r.ix} }

// Len returns the number of rows, the version's live count.
func (r *Ref) Len() int { return r.snap.Len() }

// Rows materialises the rows at the version (Column.BindAt,
// Table.BindIdxAt): views of the column or its caches, except at a
// version whose tombstones a delete replaced before their caches were
// filled, and for a join index under tombstones, which copy.
func (r *Ref) Rows() *bat.BAT {
	if b := r.rows.Load(); b != nil {
		return b
	}
	var b *bat.BAT
	if r.col != nil {
		b = r.col.BindAt(r.snap)
	} else {
		b = r.snap.bindIdx(r.ix)
	}
	// Racing readers materialise equal rows; the first one stays.
	r.rows.CompareAndSwap(nil, b)
	return r.rows.Load()
}

// The charges of a materialised bind's parts (bat.BAT.ByteSize): a
// dense head, a view of shared storage, and the descriptor.
var (
	denseBytes = bat.NewDense(0, 0).ByteSize()
	viewBytes  = bat.NewInts(nil).Slice(0, 0).ByteSize()
	descBytes  = bat.New(bat.NewDense(0, 0), bat.NewDense(0, 0)).ByteSize() - 2*denseBytes
)

// ByteSize returns the bytes the materialised rows are charged at a
// version no delete has replaced, which is what the recycle pool
// charges a bind: a dense head or a view of the live-oid list, and a
// view of the column or the join index's own copy of its tail.
func (r *Ref) ByteSize() int64 {
	head, tail := denseBytes, viewBytes
	if r.snap.v.tomb != nil {
		head = viewBytes
	}
	if r.ix != nil {
		tail = int64(r.Len()) * bat.KOid.ElemSize()
	}
	return head + tail + descBytes
}

// RowsAt returns the named rows at the given oids, which must be
// ascending, distinct and below the version's length, live or dead:
// storage keeps a tombstoned row's slot, so the rows a delete removed
// are still there to read. It costs the oids it reads, not the table.
func (r *Ref) RowsAt(oids bat.Vector) *bat.BAT {
	v := r.snap.v
	var data bat.Vector
	if r.col != nil {
		data = v.cols[r.col.pos].data
	} else {
		data = bat.NewOids(slices.Clip(v.idx[r.ix.pos].oids))
	}
	var tail bat.Vector
	if d, dense := oids.(*bat.DenseOids); dense {
		tail = data.Slice(int(d.Start), int(d.Start)+d.N)
	} else {
		pos := make([]int, oids.Len())
		for i := range pos {
			pos[i] = int(bat.OidAt(oids, i))
		}
		tail = bat.GatherVector(data, pos)
	}
	b := bat.New(oids, tail)
	b.HeadSorted = true
	b.KeyUnique = true
	return b
}

// Appended returns the rows commit c appended to what r names, at the
// fresh oids: a column's insert vector itself, or a join index's rows
// at r's version, which must be c's or a later one. Nil when c
// inserted nothing.
func (r *Ref) Appended(c Commit) *bat.BAT {
	if c.NumRows == 0 {
		return nil
	}
	head := bat.NewDense(c.FirstOid, c.NumRows)
	if r.col != nil {
		return bat.New(head, c.Inserts[r.col.pos])
	}
	return r.RowsAt(head)
}

// String renders the rows like bat.BAT.String.
func (r *Ref) String() string {
	kind := bat.KOid // a join index's parent oids
	if r.col != nil {
		kind = r.col.KindOf
	}
	return fmt.Sprintf("bat[:oid,%s]#%d", kind, r.Len())
}
