package algebra

import (
	"fmt"

	"repro/internal/bat"
)

// Grouping produces, for a column BAT, a mapping from each row to a
// dense group id. Rows are grouped by tail value. Multi-attribute
// grouping refines an existing Grouping via GroupDerive, mirroring
// MonetDB's group.new / group.derive pair.
type Grouping struct {
	// Grp maps each row (positionally aligned with the input BAT) to a
	// group id in [0, NGroups).
	Grp *bat.BAT
	// NGroups is the number of distinct groups.
	NGroups int
	// Repr holds, per group id, a representative row position.
	Repr []int
}

// GroupNew groups the rows of b by tail value. Group ids are assigned
// in first-occurrence order. Instead of a per-kind map[K]int it builds
// one chained table over the key column and exploits that a chain's
// first position IS the group representative: row i opens a new group
// exactly when First(key_i) == i, otherwise it inherits the id already
// assigned to that earlier position.
func GroupNew(b *bat.BAT) *Grouping {
	n := b.Len()
	grp := make([]bat.Oid, n)
	var repr []int
	switch t := b.Tail.(type) {
	case *bat.Ints:
		repr = groupKeys(t.V, bat.HashInt, grp)
	case *bat.Strings:
		repr = groupCodes(t, grp)
	case *bat.Dates:
		repr = groupKeys(t.V, bat.HashDate, grp)
	case *bat.Oids:
		repr = groupKeys(t.V, bat.HashOid, grp)
	case *bat.DenseOids:
		repr = make([]int, t.N)
		for i := 0; i < t.N; i++ {
			grp[i] = bat.Oid(i)
			repr[i] = i
		}
	case *bat.Floats:
		repr = groupKeys(t.V, bat.HashFloat, grp)
	case *bat.Bools:
		repr = groupKeys(t.V, bat.HashBool, grp)
	default:
		panic(fmt.Sprintf("algebra: group over unsupported tail %T", b.Tail))
	}
	g := bat.New(b.Head, bat.NewOids(grp))
	return &Grouping{Grp: g, NGroups: len(repr), Repr: repr}
}

// groupKeys assigns dense group ids over a typed key slice, writing
// row->id into grp and returning the representative positions. A probe
// that finds no chain (float NaN, which is != itself) opens a fresh
// group per row, the same behaviour NaN keys had under Go maps.
func groupKeys[K comparable](keys []K, hash func(K) uint64, grp []bat.Oid) []int {
	t := bat.NewTable(keys, hash)
	repr := make([]int, 0, 16)
	for i, k := range keys {
		if f := t.First(k); int(f) == i || f < 0 {
			grp[i] = bat.Oid(len(repr))
			repr = append(repr, i)
		} else {
			grp[i] = grp[f]
		}
	}
	return repr
}

// groupCodes is groupKeys over a string vector's codes: one code is
// one value. A dictionary up to 8× the vector indexes the group ids
// directly by code, about 5× faster than hashing the codes; past that,
// where zeroing the index costs more than the rows (the direct index
// loses at 16–32× on BenchmarkKernelGroup's shapes), it hashes them.
func groupCodes(t *bat.Strings, grp []bat.Oid) []int {
	d := t.D.Len()
	if d > 8*len(t.C) {
		return groupKeys(t.C, bat.HashCode, grp)
	}
	ids := make([]int32, d)
	repr := make([]int, 0, 16)
	for i, c := range t.C {
		id := ids[c] - 1
		if id < 0 {
			id = int32(len(repr))
			ids[c] = id + 1
			repr = append(repr, i)
		}
		grp[i] = bat.Oid(id)
	}
	return repr
}

// grpKey is the composite (group id, refining value) key used by
// GroupDerive; typed instantiation avoids boxing every row's value
// into an interface as the old map[{Oid, any}]int did.
type grpKey[K comparable] struct {
	g bat.Oid
	v K
}

// GroupDerive refines grouping g with the values of b (positionally
// aligned): two rows end in the same refined group iff they were in
// the same group of g and agree on b's tail value.
func GroupDerive(g *Grouping, b *bat.BAT) *Grouping {
	n := b.Len()
	if g.Grp.Len() != n {
		panic("algebra: group.derive alignment mismatch")
	}
	grp := make([]bat.Oid, n)
	var repr []int
	ids := g.Grp.Tail.(*bat.Oids).V
	switch t := b.Tail.(type) {
	case *bat.Ints:
		repr = deriveKeys(ids, t.V, grp)
	case *bat.Strings:
		repr = deriveKeys(ids, t.C, grp)
	case *bat.Dates:
		repr = deriveKeys(ids, t.V, grp)
	case *bat.Oids:
		repr = deriveKeys(ids, t.V, grp)
	case *bat.DenseOids:
		// Dense values are pairwise distinct: every row refines into
		// its own group, ids in row order.
		repr = make([]int, n)
		for i := 0; i < n; i++ {
			grp[i] = bat.Oid(i)
			repr[i] = i
		}
	case *bat.Floats:
		repr = deriveKeys(ids, t.V, grp)
	case *bat.Bools:
		repr = deriveKeys(ids, t.V, grp)
	default:
		panic(fmt.Sprintf("algebra: group.derive over unsupported tail %T", b.Tail))
	}
	return &Grouping{Grp: bat.New(b.Head, bat.NewOids(grp)), NGroups: len(repr), Repr: repr}
}

// deriveKeys assigns refined group ids over (prior id, typed value)
// composite keys in first-occurrence order.
func deriveKeys[K comparable](ids []bat.Oid, vals []K, grp []bat.Oid) []int {
	m := make(map[grpKey[K]]int, 16)
	repr := make([]int, 0, 16)
	for i, v := range vals {
		k := grpKey[K]{g: ids[i], v: v}
		id, ok := m[k]
		if !ok {
			id = len(m)
			m[k] = id
			repr = append(repr, i)
		}
		grp[i] = bat.Oid(id)
	}
	return repr
}

// GroupHeads returns a BAT mapping group id -> head oid of the group's
// representative row, used to label aggregate outputs.
func GroupHeads(g *Grouping, b *bat.BAT) *bat.BAT {
	heads := make([]bat.Oid, g.NGroups)
	for id, p := range g.Repr {
		heads[id] = bat.OidAt(b.Head, p)
	}
	return bat.New(bat.NewDense(0, g.NGroups), bat.NewOids(heads))
}

// grpIDs extracts the group-id vector from a grouping BAT produced by
// GroupNew/GroupDerive.
func grpIDs(grp *bat.BAT) []bat.Oid {
	return grp.Tail.(*bat.Oids).V
}

// AggrCount counts rows per group: result head is the dense group id,
// tail the count.
func AggrCount(grp *bat.BAT, ngroups int) *bat.BAT {
	counts := make([]int64, ngroups)
	for _, g := range grpIDs(grp) {
		counts[g]++
	}
	return bat.New(bat.NewDense(0, ngroups), bat.NewInts(counts))
}

// AggrSum sums v's tail per group. v must be positionally aligned with
// grp. Integer and date tails sum to int64; float tails to float64.
func AggrSum(v *bat.BAT, grp *bat.BAT, ngroups int) *bat.BAT {
	ids := grpIDs(grp)
	if v.Len() != len(ids) {
		panic("algebra: aggr.sum alignment mismatch")
	}
	switch t := v.Tail.(type) {
	case *bat.Ints:
		sums := make([]int64, ngroups)
		for i, x := range t.V {
			if x != bat.NilInt {
				sums[ids[i]] += x
			}
		}
		return bat.New(bat.NewDense(0, ngroups), bat.NewInts(sums))
	case *bat.Floats:
		sums := make([]float64, ngroups)
		for i, x := range t.V {
			if !bat.IsNilFloat(x) {
				sums[ids[i]] += x
			}
		}
		return bat.New(bat.NewDense(0, ngroups), bat.NewFloats(sums))
	}
	panic(fmt.Sprintf("algebra: aggr.sum over unsupported tail %T", v.Tail))
}

// AggrAvg averages v's tail per group, producing a float tail. Groups
// with no non-nil values yield the float nil sentinel.
func AggrAvg(v *bat.BAT, grp *bat.BAT, ngroups int) *bat.BAT {
	ids := grpIDs(grp)
	sums := make([]float64, ngroups)
	counts := make([]int64, ngroups)
	switch t := v.Tail.(type) {
	case *bat.Ints:
		for i, x := range t.V {
			if x != bat.NilInt {
				sums[ids[i]] += float64(x)
				counts[ids[i]]++
			}
		}
	case *bat.Floats:
		for i, x := range t.V {
			if !bat.IsNilFloat(x) {
				sums[ids[i]] += x
				counts[ids[i]]++
			}
		}
	default:
		panic(fmt.Sprintf("algebra: aggr.avg over unsupported tail %T", v.Tail))
	}
	out := make([]float64, ngroups)
	for g := range out {
		if counts[g] == 0 {
			out[g] = bat.NilFloat()
		} else {
			out[g] = sums[g] / float64(counts[g])
		}
	}
	return bat.New(bat.NewDense(0, ngroups), bat.NewFloats(out))
}

// AggrMin computes the per-group minimum of v's tail.
func AggrMin(v *bat.BAT, grp *bat.BAT, ngroups int) *bat.BAT {
	return aggrMinMax(v, grp, ngroups, true)
}

// AggrMax computes the per-group maximum of v's tail.
func AggrMax(v *bat.BAT, grp *bat.BAT, ngroups int) *bat.BAT {
	return aggrMinMax(v, grp, ngroups, false)
}

func aggrMinMax(v *bat.BAT, grp *bat.BAT, ngroups int, isMin bool) *bat.BAT {
	ids := grpIDs(grp)
	switch t := v.Tail.(type) {
	case *bat.Ints:
		out := make([]int64, ngroups)
		seen := make([]bool, ngroups)
		for i, x := range t.V {
			if x == bat.NilInt {
				continue
			}
			g := ids[i]
			if !seen[g] || (isMin && x < out[g]) || (!isMin && x > out[g]) {
				out[g] = x
				seen[g] = true
			}
		}
		for g := range out {
			if !seen[g] {
				out[g] = bat.NilInt
			}
		}
		return bat.New(bat.NewDense(0, ngroups), bat.NewInts(out))
	case *bat.Floats:
		out := make([]float64, ngroups)
		seen := make([]bool, ngroups)
		for i, x := range t.V {
			if bat.IsNilFloat(x) {
				continue
			}
			g := ids[i]
			if !seen[g] || (isMin && x < out[g]) || (!isMin && x > out[g]) {
				out[g] = x
				seen[g] = true
			}
		}
		for g := range out {
			if !seen[g] {
				out[g] = bat.NilFloat()
			}
		}
		return bat.New(bat.NewDense(0, ngroups), bat.NewFloats(out))
	case *bat.Dates:
		out := make([]bat.Date, ngroups)
		seen := make([]bool, ngroups)
		for i, x := range t.V {
			if x == bat.NilDate {
				continue
			}
			g := ids[i]
			if !seen[g] || (isMin && x < out[g]) || (!isMin && x > out[g]) {
				out[g] = x
				seen[g] = true
			}
		}
		for g := range out {
			if !seen[g] {
				out[g] = bat.NilDate
			}
		}
		return bat.New(bat.NewDense(0, ngroups), bat.NewDates(out))
	}
	panic(fmt.Sprintf("algebra: aggr.min/max over unsupported tail %T", v.Tail))
}

// Count returns the number of rows (aggr.count as a scalar).
func Count(b *bat.BAT) int64 { return int64(b.Len()) }

// SumFloat computes the scalar sum of a float tail, skipping nils.
func SumFloat(b *bat.BAT) float64 {
	t := b.Tail.(*bat.Floats)
	var s float64
	for _, x := range t.V {
		if !bat.IsNilFloat(x) {
			s += x
		}
	}
	return s
}

// SumInt computes the scalar sum of an int tail, skipping nils.
func SumInt(b *bat.BAT) int64 {
	t := b.Tail.(*bat.Ints)
	var s int64
	for _, x := range t.V {
		if x != bat.NilInt {
			s += x
		}
	}
	return s
}
