package bat

import "sync"

// OidBitmap is an exact membership set over the oids [lo, lo+n): oid v
// is a member iff bit v−lo is set. Oid joins, semijoins and
// anti-semijoins test it before any hashing, so a probe that misses
// costs a subtraction, a compare and one bit test.
type OidBitmap struct {
	lo    Oid
	n     uint64
	words []uint64  // nil: every oid of the range is a member
	buf   *[]uint64 // the pooled slice words is borrowed from
}

// wordPool lends bitmaps their words: a kernel builds a bitmap per
// call, and Release hands the words on to the next one.
var wordPool = sync.Pool{New: func() any { return new([]uint64) }}

// NewOidBitmap returns the bitmap of the oids in head, or nil when it
// would take more than maxWords words. A dense head is its range and
// takes no words; a sorted (non-decreasing) head's ends bound its span,
// so it costs one pass instead of two. A head holding NilOid, the
// largest oid, has an unbounded span (beside oid 0 the span would wrap
// to zero), so it gets no bitmap either. The words are borrowed, cleared,
// from a pool; Release returns them.
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
	buf := wordPool.Get().(*[]uint64)
	if nw := int((n + 63) / 64); cap(*buf) < nw {
		*buf = make([]uint64, nw)
	} else {
		*buf = (*buf)[:nw]
		clear(*buf)
	}
	words := *buf
	if sorted {
		// Ascending oids fill the words in order: each is built in a
		// register and stored once.
		w, acc := uint64(0), uint64(0)
		for _, x := range v {
			d := uint64(x - lo)
			if d>>6 != w {
				words[w] = acc
				w, acc = d>>6, 0
			}
			acc |= 1 << (d & 63)
		}
		words[w] = acc
	} else {
		for _, x := range v {
			d := uint64(x - lo)
			words[d>>6] |= 1 << (d & 63)
		}
	}
	return &OidBitmap{lo: lo, n: n, words: words, buf: buf}
}

// Release returns m's words to the pool and empties m. Nothing may
// read m's words afterwards; a nil m is a no-op.
func (m *OidBitmap) Release() {
	if m != nil && m.buf != nil {
		wordPool.Put(m.buf)
		*m = OidBitmap{}
	}
}

// Has reports whether v is a member.
func (m *OidBitmap) Has(v Oid) bool {
	d := uint64(v - m.lo)
	return d < m.n && (m.words == nil || m.words[d>>6]&(1<<(d&63)) != 0)
}
