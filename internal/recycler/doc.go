// Package recycler implements the paper's contribution: an optimizer
// advice pass plus run-time module that harvests the materialised
// intermediates of an operator-at-a-time engine into a recycle pool
// and reuses them across queries (Ivanova et al., §3–6).
//
// The recycler performs bottom-up sequence matching (design
// Alternative 1): an instruction matches a pool entry when the
// operation name, all scalar argument values and the provenance of all
// BAT arguments coincide. Lineage is therefore preserved by keeping
// whole execution threads in the pool; admission and eviction policies
// respect instruction dependencies.
//
// # Concurrency
//
// Many sessions share a single recycler; each query calls it from its
// own goroutine. Synchronisation is split so the common case stays off
// every global lock:
//
//   - The exact-match hit path is read-mostly: the signature index is
//     sharded with per-shard RWMutexes, an entry is served only when
//     the query reads each dependency table at a version the entry's
//     result holds for — from the version it last changed at up to the
//     one the pool has applied (one compare per dependency table,
//     against the query's own pins) — and per-entry reuse counters
//     (LastUseTick, ReuseCount, SavedTotal, pin) are atomics. A warm
//     pool serves concurrent hits without serialising.
//   - A single coarse writer lock still serialises every structural
//     change — admission, eviction, invalidation, delta propagation and
//     the subsumption-index searches — because lineage edges, the
//     entries' version stamps, the subsumption indexes and the byte
//     accounting must change together.
//     Every index it guards (the leaf frontier eviction pops from, the
//     per-column range index, the semijoin pair map) is maintained by
//     Add and Remove, so no step of a miss, an admission or an LRU
//     eviction costs more than O(log n) in the pool size.
//   - Combined subsumption snapshots its candidate pieces under the
//     writer lock, executes the piecewise selects and the merge with no
//     lock held, and re-validates every piece after re-acquiring the
//     lock before serving or admitting the merged result; a concurrent
//     invalidation aborts the combined hit instead of resurrecting
//     stale pieces.
//
// The full lock hierarchy (writer lock → activeMu → shard locks →
// admission mutex) is documented on the Recycler type; lock-contention
// telemetry (blocked acquisitions and blocked time for the writer lock
// and the hit-path shard locks) is exposed through Stats and the
// server's /metrics endpoint.
package recycler
