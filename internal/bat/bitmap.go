package bat

// OidBitmap is an exact membership set over the oids [lo, lo+n): oid v
// is a member iff bit v−lo is set. Oid joins, semijoins and
// anti-semijoins test it before any hashing, so a probe that misses
// costs a subtraction, a compare and one bit test.
type OidBitmap struct {
	lo    Oid
	n     uint64
	words []uint64 // nil: every oid of the range is a member
}

// NewOidBitmap returns the bitmap of the oids in head, or nil when it
// would take more than maxWords words. A dense head is its range and
// takes no words; a sorted (non-decreasing) head's ends bound its span,
// so it costs one pass instead of two. A head holding NilOid, the
// largest oid, has an unbounded span (beside oid 0 the span would wrap
// to zero), so it gets no bitmap either.
func NewOidBitmap(head Vector, sorted bool, maxWords int) *OidBitmap {
	var v []Oid
	switch h := head.(type) {
	case *DenseOids:
		return &OidBitmap{lo: h.Start, n: uint64(h.N)}
	case *Oids:
		v = h.V
	default:
		panic("bat: oid bitmap over non-oid head")
	}
	if len(v) == 0 {
		return &OidBitmap{}
	}
	lo, hi := v[0], v[len(v)-1]
	if !sorted {
		hi = v[0]
		for _, x := range v[1:] {
			lo = min(lo, x)
			hi = max(hi, x)
		}
	}
	if hi == NilOid {
		return nil
	}
	n := uint64(hi-lo) + 1
	if n > 64*uint64(maxWords) {
		return nil
	}
	words := make([]uint64, (n+63)/64)
	for _, x := range v {
		d := uint64(x - lo)
		words[d>>6] |= 1 << (d & 63)
	}
	return &OidBitmap{lo: lo, n: n, words: words}
}

// Has reports whether v is a member.
func (m *OidBitmap) Has(v Oid) bool {
	d := uint64(v - m.lo)
	return d < m.n && (m.words == nil || m.words[d>>6]&(1<<(d&63)) != 0)
}
