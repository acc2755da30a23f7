package bat

import "sync"

// Postings is the inverse of an oid vector: for every value, the
// ascending positions holding it. Values in [lo, lo+span) index CSR
// offsets into one position array; rows holding NilOid, which has no
// place in a bounded span, keep a list of their own. An oid join whose
// left tail carries postings reads the positions its right side's oids
// reach instead of testing every left row.
type Postings struct {
	lo   Oid
	off  []int32 // positions of value lo+d are pos[off[d]:off[d+1]]
	pos  []int32
	nils []int32 // positions holding NilOid, ascending
}

// NewPostings inverts v with a counting sort of its positions by
// value. It returns nil when the value span is wider than twice the
// rows, so the offsets never take much more than the positions do.
func NewPostings(v []Oid) *Postings {
	p := &Postings{}
	lo, hi, seen := Oid(0), Oid(0), false
	for _, x := range v {
		if x == NilOid {
			continue
		}
		if !seen {
			lo, hi, seen = x, x, true
			continue
		}
		lo = min(lo, x)
		hi = max(hi, x)
	}
	var span uint64
	if seen {
		span = uint64(hi-lo) + 1
	}
	if span > 2*uint64(len(v)) {
		return nil
	}
	p.lo = lo
	p.off = make([]int32, span+1)
	nils := 0
	for _, x := range v {
		if x == NilOid {
			nils++
			continue
		}
		p.off[x-lo+1]++
	}
	for d := uint64(1); d <= span; d++ {
		p.off[d] += p.off[d-1]
	}
	p.pos = make([]int32, len(v)-nils)
	if nils > 0 {
		p.nils = make([]int32, 0, nils)
	}
	// Placing a position advances its value's offset to the next
	// value's start; one shift afterwards restores the starts.
	for i, x := range v {
		if x == NilOid {
			p.nils = append(p.nils, int32(i))
			continue
		}
		d := x - lo
		p.pos[p.off[d]] = int32(i)
		p.off[d]++
	}
	copy(p.off[1:], p.off[:span])
	p.off[0] = 0
	return p
}

// Rows returns the ascending positions holding v. The slice aliases
// the postings and must not be written.
func (p *Postings) Rows(v Oid) []int32 {
	if v == NilOid {
		return p.nils
	}
	d := uint64(v - p.lo)
	if d >= uint64(len(p.off)-1) {
		return nil
	}
	return p.pos[p.off[d]:p.off[d+1]]
}

// LazyPostings builds the postings of one oid slice on first use,
// once, on the goroutine that asks; later callers share the result.
type LazyPostings struct {
	once sync.Once
	v    []Oid
	p    *Postings
}

// NewLazyPostings returns a handle over v, which must not change for
// as long as the handle is reachable.
func NewLazyPostings(v []Oid) *LazyPostings { return &LazyPostings{v: v} }

// Get returns the postings, building them on the first call; nil when
// NewPostings declines the span.
func (l *LazyPostings) Get() *Postings {
	l.once.Do(func() { l.p = NewPostings(l.v) })
	return l.p
}

// NewOidsWithPostings wraps v as a vector whose postings h provides.
// h must describe exactly v; views of the vector (Slice) carry none.
func NewOidsWithPostings(v []Oid, h *LazyPostings) *Oids {
	return &Oids{V: v, post: h}
}

// Postings returns the vector's postings, building them on the first
// call, or nil when the vector carries no handle or its span is too
// wide.
func (o *Oids) Postings() *Postings {
	if o.post == nil {
		return nil
	}
	return o.post.Get()
}
