package bat

import (
	"sync"
	"sync/atomic"
)

// Dict is a string column's dictionary: every distinct value once, at
// the position that is its code (MonetDB's string heap, with codes for
// offsets). It is append-only: a value keeps its code for the
// dictionary's lifetime, and new values are written past the published
// prefix, as Extend writes past a vector's length. Readers take no
// lock: Values loads the published prefix, which reaches every code of
// every vector the reader can hold, since a vector's codes are
// published before the vector is. Encode is safe from any goroutine;
// in practice the owner of a column encodes, under the lock its appends
// already take.
type Dict struct {
	vals  atomic.Pointer[[]string] // the published values; code c is (*vals)[c]
	mu    sync.Mutex               // serialises Encode and guards index
	index map[string]uint32        // value -> code, built by the first Encode
}

// dictOf returns a dictionary over distinct values, adopting vals.
func dictOf(vals []string) *Dict {
	d := &Dict{}
	d.vals.Store(&vals)
	return d
}

// Values returns the published values, indexed by code. The caller
// must not modify them.
func (d *Dict) Values() []string { return *d.vals.Load() }

// Len returns the number of published values.
func (d *Dict) Len() int { return len(d.Values()) }

// Encode returns the codes of vals, adding the values the dictionary
// lacks. The new values are published once, before Encode returns.
func (d *Dict) Encode(vals []string) []uint32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	cur := d.Values()
	if d.index == nil {
		d.index = make(map[string]uint32, len(cur)+len(vals))
		for c, s := range cur {
			d.index[s] = uint32(c)
		}
	}
	next := cur
	codes := make([]uint32, len(vals))
	for i, s := range vals {
		c, ok := d.index[s]
		if !ok {
			c = uint32(len(next))
			d.index[s] = c
			next = append(next, s) // past cur's length: no reader sees these slots
		}
		codes[i] = c
	}
	if len(next) > len(cur) {
		d.vals.Store(&next)
	}
	return codes
}

// ByteSize returns the dictionary's payload: a string header and the
// bytes of every value.
func (d *Dict) ByteSize() int64 {
	var sz int64
	for _, s := range d.Values() {
		sz += 16 + int64(len(s))
	}
	return sz
}

// encodeFresh encodes vals into a new dictionary of their distinct
// values in first-occurrence order. The map it builds is dropped, so a
// loaded column's dictionary carries no index until its first append.
func encodeFresh(vals []string) ([]uint32, *Dict) {
	index := make(map[string]uint32)
	var distinct []string
	codes := make([]uint32, len(vals))
	for i, s := range vals {
		c, ok := index[s]
		if !ok {
			c = uint32(len(distinct))
			index[s] = c
			distinct = append(distinct, s)
		}
		codes[i] = c
	}
	return codes, dictOf(distinct)
}
