package recycler

import "repro/internal/algebra"

// This file implements the per-column index over range-select entries
// that the subsumption searches run on: a treap ordered by lower bound
// (ties by entry id) in which every node also carries the largest upper
// bound of its subtree. Ordering by lower bound cuts off everything
// that starts above the target; the subtree maximum cuts off everything
// that ends below it, so a superset or overlap search visits O(log n)
// nodes plus the ones it reports instead of every select over the
// column. Insert and delete are O(log n) expected and keep both
// properties on the way back up, so the search cost does not depend on
// how many selects the pool holds.
//
// An open bound (nil) is infinite: a nil lower bound sorts first, and
// a subtree containing a nil upper bound is never cut off from above.
// Pruning compares bounds as closed intervals, which is conservative —
// the exact test, inclusiveness flags included, decides each reported
// entry.

// selNode is one range-select entry in a column's index.
type selNode struct {
	e           *Entry
	left, right *selNode
	prio        uint64
	// maxHi is the largest upper bound in the subtree; hiOpen records
	// that some interval in it has no upper bound at all.
	maxHi  any
	hiOpen bool
}

// selPrio derives a node's heap priority from the entry id (splitmix64
// finalizer): deterministic, and uncorrelated with the lower bounds
// even when a workload admits them in sorted order.
func selPrio(id uint64) uint64 {
	id += 0x9e3779b97f4a7c15
	id = (id ^ (id >> 30)) * 0xbf58476d1ce4e5b9
	id = (id ^ (id >> 27)) * 0x94d049bb133111eb
	return id ^ (id >> 31)
}

// selBefore orders entries by (lower bound, id); nil sorts first.
func selBefore(a, b *Entry) bool {
	switch {
	case a.Sel.Lo == nil && b.Sel.Lo != nil:
		return true
	case a.Sel.Lo != nil && b.Sel.Lo == nil:
		return false
	case a.Sel.Lo != nil:
		if c := algebra.Cmp(a.Sel.Lo, b.Sel.Lo); c != 0 {
			return c < 0
		}
	}
	return a.ID < b.ID
}

// fix recomputes the subtree maximum from the node and its children.
func (n *selNode) fix() {
	n.maxHi, n.hiOpen = n.e.Sel.Hi, n.e.Sel.Hi == nil
	for _, c := range [2]*selNode{n.left, n.right} {
		if c == nil || n.hiOpen {
			continue
		}
		if c.hiOpen {
			n.maxHi, n.hiOpen = nil, true
		} else if algebra.Cmp(c.maxHi, n.maxHi) > 0 {
			n.maxHi = c.maxHi
		}
	}
}

// endsBelow reports whether every interval in the subtree ends before
// v (v nil = the target itself is unbounded above).
func (n *selNode) endsBelow(v any) bool {
	if n.hiOpen {
		return false
	}
	return v == nil || algebra.Cmp(n.maxHi, v) < 0
}

// startsAbove reports whether the node's interval starts after v
// (v nil = the target is unbounded below, so only nil starts qualify).
func (n *selNode) startsAbove(v any) bool {
	if n.e.Sel.Lo == nil {
		return false
	}
	return v == nil || algebra.Cmp(n.e.Sel.Lo, v) > 0
}

// selSplit cuts the tree into the nodes before e and the nodes after.
func selSplit(t *selNode, e *Entry) (l, r *selNode) {
	if t == nil {
		return nil, nil
	}
	if selBefore(t.e, e) {
		t.right, r = selSplit(t.right, e)
		t.fix()
		return t, r
	}
	l, t.left = selSplit(t.left, e)
	t.fix()
	return l, t
}

// selMerge joins two trees where everything in l sorts before r.
func selMerge(l, r *selNode) *selNode {
	switch {
	case l == nil:
		return r
	case r == nil:
		return l
	case l.prio > r.prio:
		l.right = selMerge(l.right, r)
		l.fix()
		return l
	}
	r.left = selMerge(l, r.left)
	r.fix()
	return r
}

// selInsert adds node n and returns the new root.
func selInsert(t, n *selNode) *selNode {
	if t == nil || n.prio > t.prio {
		n.left, n.right = selSplit(t, n.e)
		n.fix()
		return n
	}
	if selBefore(n.e, t.e) {
		t.left = selInsert(t.left, n)
	} else {
		t.right = selInsert(t.right, n)
	}
	t.fix()
	return t
}

// selDelete removes e's node, if present, and returns the new root.
func selDelete(t *selNode, e *Entry) *selNode {
	if t == nil {
		return nil
	}
	if t.e == e {
		return selMerge(t.left, t.right)
	}
	if selBefore(e, t.e) {
		t.left = selDelete(t.left, e)
	} else {
		t.right = selDelete(t.right, e)
	}
	t.fix()
	return t
}

// supersets appends the entries whose range contains the target t.
func (n *selNode) supersets(out []*Entry, t algebra.Range) []*Entry {
	if n == nil || n.endsBelow(t.Hi) {
		return out
	}
	out = n.left.supersets(out, t)
	if n.startsAbove(t.Lo) {
		return out // so does everything to the right
	}
	if n.e.Sel.Contains(t) {
		out = append(out, n.e)
	}
	return n.right.supersets(out, t)
}

// overlaps appends the entries whose range intersects t.
func (n *selNode) overlaps(out []*Entry, t algebra.Range) []*Entry {
	if n == nil || (t.Lo != nil && n.endsBelow(t.Lo)) {
		return out
	}
	out = n.left.overlaps(out, t)
	if t.Hi != nil && n.startsAbove(t.Hi) {
		return out
	}
	if n.e.Sel.Overlaps(t) {
		out = append(out, n.e)
	}
	return n.right.overlaps(out, t)
}
