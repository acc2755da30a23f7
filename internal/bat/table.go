package bat

import "math"

// This file implements the typed hash table behind hash joins,
// semijoins, grouping and deduplication: an open-addressing bucket
// array over the typed key slice plus an arena-backed chain array,
// replacing the seed's map[K][]int (which allocated a slice header per
// distinct key and boxed every probe through runtime map internals).
//
// Layout: buckets is a power-of-two array of entry indices (-1 empty);
// next chains entries that share a bucket. Both arrays are preallocated
// from the build-side cardinality, so building is two allocations total
// and probing touches only flat int32 arrays. Keys stay in the caller's
// typed slice — the table stores positions, never copies values.
//
// Chains are built by walking the key slice in REVERSE index order, so
// First/Next enumerate matching positions in ascending order — the
// exact order the seed's append-built map values had, which join result
// order (and therefore bit-identical replay) depends on.

// Table is a chained hash index over a typed key slice. K is one of
// the engine's base column types; hash is fixed at build time.
type Table[K comparable] struct {
	keys    []K
	buckets []int32
	next    []int32
	mask    uint64
	hash    func(K) uint64
}

// NewTable indexes keys. The keys slice is retained (not copied); it
// must not be mutated while the table is in use.
func NewTable[K comparable](keys []K, hash func(K) uint64) *Table[K] {
	n := len(keys)
	nb := bucketCount(n)
	t := &Table[K]{
		keys:    keys,
		buckets: make([]int32, nb),
		next:    make([]int32, n),
		mask:    uint64(nb - 1),
		hash:    hash,
	}
	for i := range t.buckets {
		t.buckets[i] = -1
	}
	for i := n - 1; i >= 0; i-- {
		b := hash(keys[i]) & t.mask
		t.next[i] = t.buckets[b]
		t.buckets[b] = int32(i)
	}
	return t
}

// bucketCount returns the bucket array size for n keys: the smallest
// power of two >= 2n (load factor <= 0.5), at least 8.
func bucketCount(n int) int {
	nb := 8
	for nb < 2*n {
		nb <<= 1
	}
	return nb
}

// First returns the smallest position whose key equals k, or -1.
func (t *Table[K]) First(k K) int32 {
	for p := t.buckets[t.hash(k)&t.mask]; p >= 0; p = t.next[p] {
		if t.keys[p] == k {
			return p
		}
	}
	return -1
}

// Next returns the next position after p whose key equals k, or -1.
// p must be a position previously returned by First or Next for k.
func (t *Table[K]) Next(p int32, k K) int32 {
	for p = t.next[p]; p >= 0; p = t.next[p] {
		if t.keys[p] == k {
			return p
		}
	}
	return -1
}

// Has reports whether any position holds key k.
func (t *Table[K]) Has(k K) bool { return t.First(k) >= 0 }

// --- hash functions ------------------------------------------------------
//
// Integers use a splitmix64-style finalizer (full avalanche, two
// multiplies); floats hash their IEEE bits, so NaN keys never match on
// probe (comparison fails), the same observable semantics Go maps give
// them. Strings hash as their dictionary codes.

func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// HashInt hashes an int64 key.
func HashInt(v int64) uint64 { return mix64(uint64(v)) }

// HashOid hashes an oid key.
func HashOid(v Oid) uint64 { return mix64(uint64(v)) }

// HashDate hashes a date key.
func HashDate(v Date) uint64 { return mix64(uint64(uint32(v))) }

// HashCode hashes a dictionary code.
func HashCode(v uint32) uint64 { return mix64(uint64(v)) }

// HashFloat hashes a float64 key by IEEE-754 bits.
func HashFloat(v float64) uint64 { return mix64(math.Float64bits(v)) }

// HashBool hashes a bool key.
func HashBool(v bool) uint64 {
	if v {
		return mix64(1)
	}
	return mix64(0)
}

// Typed constructors for the base kinds.

// BuildInts indexes an int64 slice.
func BuildInts(keys []int64) *Table[int64] { return NewTable(keys, HashInt) }

// BuildOids indexes an oid slice.
func BuildOids(keys []Oid) *Table[Oid] { return NewTable(keys, HashOid) }

// BuildDates indexes a date slice.
func BuildDates(keys []Date) *Table[Date] { return NewTable(keys, HashDate) }

// BuildFloats indexes a float64 slice.
func BuildFloats(keys []float64) *Table[float64] { return NewTable(keys, HashFloat) }

// BuildCodes indexes a slice of dictionary codes.
func BuildCodes(keys []uint32) *Table[uint32] { return NewTable(keys, HashCode) }
