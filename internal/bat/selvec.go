package bat

// SelectionVector is a list of positional indices into a BAT: the
// rows a filter or a semijoin keeps, gathered into the result once.
// Positions are int32 — vectors are bounded well below 2^31 rows and
// halving the index width keeps the scan loops in cache.
type SelectionVector []int32

// GatherSel materialises the rows of b at the selected positions, in
// order. It is Gather for int32 positions, with the head-gather loops
// monomorphized per head representation.
func GatherSel(b *BAT, sel SelectionVector) *BAT {
	headOut := make([]Oid, len(sel))
	switch h := b.Head.(type) {
	case *Oids:
		for i, p := range sel {
			headOut[i] = h.V[p]
		}
	case *DenseOids:
		for i, p := range sel {
			headOut[i] = h.Start + Oid(p)
		}
	default:
		panic("bat: GatherSel on non-oid head")
	}
	return New(NewOids(headOut), GatherVectorSel(b.Tail, sel))
}

// GatherVectorSel materialises the elements of vec at the selected
// positions, in order.
func GatherVectorSel(vec Vector, sel SelectionVector) Vector {
	switch t := vec.(type) {
	case *Ints:
		v := make([]int64, len(sel))
		for i, p := range sel {
			v[i] = t.V[p]
		}
		return NewInts(v)
	case *Floats:
		v := make([]float64, len(sel))
		for i, p := range sel {
			v[i] = t.V[p]
		}
		return NewFloats(v)
	case *Strings:
		v := make([]uint32, len(sel))
		for i, p := range sel {
			v[i] = t.C[p]
		}
		return StringsOf(v, t.D)
	case *Dates:
		v := make([]Date, len(sel))
		for i, p := range sel {
			v[i] = t.V[p]
		}
		return NewDates(v)
	case *Bools:
		v := make([]bool, len(sel))
		for i, p := range sel {
			v[i] = t.V[p]
		}
		return NewBools(v)
	case *Oids:
		v := make([]Oid, len(sel))
		for i, p := range sel {
			v[i] = t.V[p]
		}
		return NewOids(v)
	case *DenseOids:
		v := make([]Oid, len(sel))
		for i, p := range sel {
			v[i] = t.Start + Oid(p)
		}
		return NewOids(v)
	default:
		panic("bat: GatherVectorSel of unknown vector type")
	}
}

// GatherOidsSel materialises the oids of an oid-kinded vector at the
// selected positions. Scatter-style helper for head construction.
func GatherOidsSel(v Vector, sel SelectionVector) []Oid {
	out := make([]Oid, len(sel))
	switch o := v.(type) {
	case *Oids:
		for i, p := range sel {
			out[i] = o.V[p]
		}
	case *DenseOids:
		for i, p := range sel {
			out[i] = o.Start + Oid(p)
		}
	default:
		panic("bat: GatherOidsSel on non-oid vector")
	}
	return out
}
