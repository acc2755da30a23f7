package plan

import "repro/internal/mal"

// DeltaClass classifies an operation for the recycler's update
// synchronisation (paper §6): which delta rule, if any, keeps a pooled
// result of the operation consistent under a commit to a base table.
// The recycler holds exactly one rule per class and walks a commit's
// affected entries through them; DeltaNone is the class of operations
// that have no rule and invalidate. The recycler's three SyncMode
// values are presets that mask classes off — "invalidate" masks all of
// them — so a class describes what CAN be maintained, not what a given
// configuration does maintain.
//
// The classification is static — purely a property of the operation
// name — and conservative: anything without a sound rule classifies
// DeltaNone. Every instruction executes as itself, so the class of a
// pooled entry is the class of the one operation that produced it.
type DeltaClass int

// Delta classes.
const (
	// DeltaNone: no sound delta rule — invalidate on update.
	DeltaNone DeltaClass = iota
	// DeltaBase: a catalog bind (sql.bind, sql.bindIdxbat); maintained
	// as its own old result minus the commit's dead rows plus the
	// commit's insert delta, which seeds the propagation.
	DeltaBase
	// DeltaFilter: a row filter (mal.IsFilter: select/uselect/
	// likeselect/notlikeselect/selectNotNil) over one rowset parent;
	// maintained as SplitHeads(old) ∪ P(parent delta).
	DeltaFilter
	// DeltaProject: a projection (semijoin of a bind against a rowset)
	// over two parents of the same base table; maintained as
	// SplitHeads(old) ∪ Semijoin(δL, δR) — old rows cannot match
	// fresh-oid delta rows and vice versa, so the cross terms vanish.
	DeltaProject
	// DeltaAgg: a flat additive aggregate (count / int sum / float
	// sum) over one rowset parent; count and int sums apply the delta
	// arithmetically, float sums recompute over the maintained parent
	// (floating-point addition is non-associative, and recomputing in
	// parent order is what keeps the result bit-identical).
	DeltaAgg
	// DeltaView: a zero-cost viewpoint change (reverse / mirror /
	// markT); re-derived from the maintained parent, which is sound
	// under inserts and deletes alike. Its result is no longer headed
	// by base-table oids, so the rowset classes above do not apply
	// over it.
	DeltaView
	// DeltaJoin: an equi-join; insert-only differential
	// δL⋈R ∪ L⋈δR ∪ δL⋈δR appended to the old result (§6.3). Any
	// delete falls back. The appended rows are the rows a recompute
	// adds, but a recompute interleaves L⋈δR with the old rows: the
	// result is the same bag in a different order.
	DeltaJoin
)

// String names the class for diagnostics.
func (c DeltaClass) String() string {
	switch c {
	case DeltaBase:
		return "base"
	case DeltaFilter:
		return "filter"
	case DeltaProject:
		return "project"
	case DeltaAgg:
		return "agg"
	case DeltaView:
		return "view"
	case DeltaJoin:
		return "join"
	}
	return "none"
}

// ClassifyOp returns the delta class of an operation name.
//
// Deliberately excluded (they classify DeltaNone):
//
//	group.* / aggr.sum    grouped aggregates need per-group state
//	aggr.min/max/avg...   MIN/MAX not maintainable under deletes
//	algebra.sort/topn     order statistics, recompute
//	algebra.kunique ...   everything else: no rule written
func ClassifyOp(op string) DeltaClass {
	if mal.IsFilter(op) {
		return DeltaFilter
	}
	switch op {
	case "sql.bind", "sql.bindIdxbat":
		return DeltaBase
	case "algebra.semijoin":
		return DeltaProject
	case "aggr.count", "aggr.sumInt", "aggr.sumFlt":
		return DeltaAgg
	case "bat.reverse", "bat.mirror", "algebra.markT":
		return DeltaView
	case "algebra.join":
		return DeltaJoin
	}
	return DeltaNone
}
