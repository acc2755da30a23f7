package recycler

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/mal"
	"repro/internal/plan"
	"repro/internal/trace"
)

// Pins is what the pool compares entries against: the version of each
// table the asking query reads. *mal.Ctx implements it (mal.Ctx.Pin).
type Pins interface {
	Pin(qname string) (catalog.Snapshot, bool)
}

// tableList is one table's share of the pool: the entries stamped with
// the table, in id order — admission order, which is topological
// order: parents first — and the version of the table they reflect. A
// commit to or a drop of the table reaches exactly these entries. Ids
// rise, so Pool.Add appends; Pool.Remove finds the entry's slot by its
// id and clears it at once, so an evicted result is not kept reachable,
// and the list compacts when more than half of its slots are holes.
// The ids sit in a column of their own, so neither the search nor a
// compaction touches an entry: a compaction that rewrote an index in
// every live entry cost up to a millisecond under the writer lock on
// a pool of 10⁴ entries.
type tableList struct {
	table   string // schema-qualified
	created uint64 // the table's creation stamp (catalog.Stamp.Created)
	// applied is the version of the table the pool has applied: every
	// entry is current for the versions from its since up to applied.
	// Moved by the commit walk under the writer lock, read by the hit
	// path under a shard read lock.
	applied atomic.Int64
	// The fields above are read by every hit over the table, the ones
	// below written by every admission and eviction over it: the pad
	// keeps them off one cache line.
	_       [64]byte
	entries []*Entry // nil slots are holes
	ids     []uint64 // entries[i]'s id, kept for a hole too
	holes   int
}

// remove clears e's slot, compacting the list when most of it is
// holes. Compaction copies the live slots into new arrays, so a walk
// ranging over the old one is not disturbed.
func (l *tableList) remove(e *Entry) {
	i, _ := slices.BinarySearch(l.ids, e.ID)
	l.entries[i] = nil
	if l.holes++; l.holes <= len(l.entries)/2 {
		return
	}
	n := len(l.entries) - l.holes
	entries, ids := make([]*Entry, 0, n), make([]uint64, 0, n)
	for i, e := range l.entries {
		if e != nil {
			entries, ids = append(entries, e), append(ids, l.ids[i])
		}
	}
	l.entries, l.ids, l.holes = entries, ids, 0
}

// tableStamp records one table an entry's result reads: the table's
// list, and the version since which the result is what it is. An
// entry's stamps are its only dependency record.
type tableStamp struct {
	l     *tableList
	since int64
}

// current reports whether a result with stamps is what a query reading
// q's versions would compute: q reads each table at a version from the
// result's since up to the one the pool has applied. The commit walk
// proves every entry it leaves alone the same at both ends of the
// commit; one it changes moves its since. Callers hold the entry's
// shard lock or the writer lock, so a walk cannot swap the result
// between the compare and the read of applied.
func current(stamps []tableStamp, q Pins) bool {
	for _, s := range stamps {
		pin, ok := q.Pin(s.l.table)
		if !ok || pin.Stamp.Created != s.l.created || pin.Stamp.Version < s.since || pin.Stamp.Version > s.l.applied.Load() {
			return false
		}
	}
	return true
}

// Entry is one recycled intermediate: a captured instruction instance
// together with its result and its execution/reuse statistics.
//
// Fields split into two synchronisation classes. The structural fields
// (Sig, OpName, Result, stamps, lineage, subsumption metadata, ...) are
// written before the entry is published via Pool.Add and afterwards
// mutated only under the recycler's writer lock (refreshResult
// additionally takes the entry's signature-shard lock, because the hit
// path copies Result under that shard's read lock). The hot counters
// (ReuseCount, LastUseTick, SavedTotal, GlobalReuse, pinnedQuery) are
// atomics, so the read-mostly hit path can update them without any
// pool-wide lock.
//
// A query may use an entry only at the versions the entry was computed
// at (stamps): every pool accessor that hands entries out takes the
// query's Pins and returns only entries current for them.
//
// Field order matters to the hit path: concurrent hits on one entry
// read Result under the shard read lock and write the hot counters, so
// the counters must not share a cache line with Result. Cold fields go
// after the subsumption metadata. (Shifting the counters 16 bytes onto
// Result's last line cost tpch-mix ≈7 % CPU per operation on a 2-vCPU
// host.)
type Entry struct {
	ID uint64
	// Sig is the encoded run-time exact-match key under which the
	// entry is indexed: plan.AppendKey over the instruction's operands,
	// taken at admission.
	Sig string

	// OpName is "module.op" of the captured instruction.
	OpName string

	// Result holds the intermediate; Result.Prov == ID.
	Result mal.Value
	Bytes  int64
	Tuples int

	// Cost is the CPU time spent computing the intermediate.
	Cost time.Duration
	// SavedTotal accumulates the estimated time saved by reuses, in
	// nanoseconds (atomic: bumped on the lock-free hit path).
	SavedTotal atomic.Int64

	// AdmitTick and LastUseTick are virtual clock readings used by the
	// LRU and History policies. LastUseTick is atomic: every pool hit
	// refreshes it without taking the writer lock.
	AdmitTick   int64
	LastUseTick atomic.Int64

	// ReuseCount counts reuses (the paper's k-1 references beyond the
	// creating one).
	ReuseCount  atomic.Int64
	GlobalReuse atomic.Bool // reused by a query other than the admitting one

	// QueryID identifies the admitting query invocation.
	QueryID uint64
	// TemplID/PC identify the source template instruction (credit
	// bookkeeping attaches there).
	TemplID uint64
	PC      int

	// DependsOn lists the pool entries whose results are arguments of
	// this instruction (the lineage edges).
	DependsOn  []uint64
	dependents int
	// parents holds the producers of the first two arguments (nil for
	// a non-BAT one), the only ones a delta rule reads: the commit walk
	// reads a parent through it. A parent outlives its children in the
	// pool — eviction takes leaves only, and a walk or a drop that
	// removes a parent removes its children, which read the same table.
	parents [2]*Entry

	// heapPos is the entry's position in the pool's leaf frontier plus
	// one (0 = not a leaf), heapTick the LastUseTick reading the
	// frontier currently orders it by (see Pool.frontier). Writer lock.
	heapPos  int
	heapTick int64

	// SubsetOf records the derivation edge created by subsumption:
	// this entry's result is a subset of the referenced entry's
	// result. Zero when not derived.
	SubsetOf uint64

	// stamps holds every table the result (transitively) reads, one
	// per table, with the version since which the result holds: set at
	// admission, moved by the commit walk together with the result
	// under the signature shard's write lock, and read by the hit path
	// under its read lock. Its length never changes.
	stamps []tableStamp

	// Select-specific matching metadata (subsumption analysis).
	IsRangeSelect bool
	SelColKey     string        // Key() of the column operand
	Sel           algebra.Range // the select's bounds

	// Like-specific metadata.
	IsLike     bool
	LikeColKey string
	LikePat    string

	// Semijoin-specific metadata.
	IsSemijoin bool
	SemiLeft   uint64 // provenance of the left operand
	SemiRight  uint64 // provenance of the right operand

	// Args snapshots the argument values of the captured instruction,
	// a BAT operand as its producer's id alone (operands); delta
	// propagation re-executes against them.
	Args []mal.Value

	// deltaClass caches the operation's delta class, which picks the
	// entry's rule in the commit walk (delta.go), and pred a filter's
	// predicate (nil for any other op), which its rule runs over the
	// delta rows. Both are computed once at admission.
	deltaClass plan.DeltaClass
	pred       *algebra.Pred
	// ownsRoom records that the commit walk itself allocated the
	// result's vectors, for this entry alone, so the room behind them is
	// the entry's to extend into (bat.Extend's storage contract). A
	// result a kernel or the catalog produced may be another entry's
	// result too — kernels hand inputs through — and is copied once
	// before its first extension. Guarded by the writer lock.
	ownsRoom bool
	// delta is what the running commit walk did to the entry's result,
	// nil when it left the result as it was; the walk clears it when it
	// ends. Writer lock.
	delta *change

	valid       atomic.Bool
	pinnedQuery atomic.Uint64 // query currently protecting the entry
}

// Valid reports whether the entry may be matched.
func (e *Entry) Valid() bool { return e.valid.Load() }

// Reads reports whether e's result was computed from table
// (schema-qualified). Caller holds the writer lock.
func (e *Entry) Reads(table string) bool {
	return slices.ContainsFunc(e.stamps, func(s tableStamp) bool { return s.l.table == table })
}

// Saved returns the accumulated estimated time saved by reuses.
func (e *Entry) Saved() time.Duration { return time.Duration(e.SavedTotal.Load()) }

// Weight implements the paper's weight function (Eq. 2): reused
// entries weigh their global reference count, unused or locally-reused
// ones weigh 0.1.
func (e *Entry) Weight() float64 {
	if n := e.ReuseCount.Load(); n >= 1 && e.GlobalReuse.Load() {
		return float64(n)
	}
	return 0.1
}

// Benefit implements the Benefit policy metric (Eq. 1).
func (e *Entry) Benefit() float64 {
	return float64(e.Cost) * e.Weight()
}

// HistoryBenefit implements the History policy metric (Eq. 3).
func (e *Entry) HistoryBenefit(nowTick int64) float64 {
	age := nowTick - e.AdmitTick
	if age < 1 {
		age = 1
	}
	return e.Benefit() / float64(age)
}

// numSigShards fixes the signature-map shard count. Shards only bound
// contention (hit-path readers vs. structural writers), not capacity,
// so a modest power of two suffices even for large pools.
const numSigShards = 32

// sigShard is one slice of the signature index. Its RWMutex is the
// only lock the exact-match hit path takes: readers hold it shared
// while resolving a signature and copying the entry's Result out;
// Add/Remove/refreshResult hold it exclusively (in addition to the
// recycler writer lock) while splicing the map or swapping Result.
type sigShard struct {
	mu    sync.RWMutex
	bySig map[string]*Entry
}

// Pool is the recycle pool: the shared buffer of intermediates plus
// the indexes used for matching and subsumption search.
//
// Synchronisation: the signature index is sharded with per-shard
// RWMutexes so concurrent hit-path lookups do not serialise. Every
// other index (entries, frontier, selIdx, likeIdx, semiIdx, tables),
// the byte accounting and the lifetime counters are guarded by the
// owning Recycler's writer lock; methods touching them document that
// the caller holds it.
type Pool struct {
	shards [numSigShards]sigShard

	entries map[uint64]*Entry
	// frontier holds the leaves — the valid entries with no in-pool
	// dependents, the only ones eviction may take (paper §4.3) — as a
	// min-heap on (heapTick, ID). Add and Remove keep membership exact
	// as dependent counts cross zero. The ordering is lazy: a hit moves
	// an entry's LastUseTick without the writer lock, so heapTick may
	// lag behind it. Ticks only grow, which makes a lagging key a lower
	// bound: the entry surfaces no later than it should, and popLeaf
	// re-sorts it when it does.
	frontier []*Entry
	// selIdx indexes valid range-select entries by column operand key
	// (see selindex.go).
	selIdx map[string]*selNode
	// likeIdx indexes valid likeselect entries by column operand key.
	likeIdx map[string][]*Entry
	// semiIdx indexes valid semijoin entries by the provenances of
	// their (left, right) operands.
	semiIdx map[[2]uint64]*Entry
	// tables holds each table's entry list, made the first time an
	// admission reads the table and dropped with the table.
	tables map[string]*tableList

	totalBytes int64
	nextID     uint64
	tick       atomic.Int64

	// Lifetime counters (writer lock), except reuses which is bumped on
	// the lock-free hit path.
	Admitted    int64
	Evicted     int64
	Invalidated int64
	reuses      atomic.Int64

	// Shard-lock contention telemetry: blocked read acquisitions on the
	// hit path and the total time they spent blocked.
	shardWaits  atomic.Int64
	shardWaitNs atomic.Int64

	// metrics, when set (via Recycler.SetTracer), receives the same
	// shard-wait observations as a histogram. Atomic pointer: the
	// tracer may attach while hit traffic is already running.
	metrics atomic.Pointer[trace.Metrics]
}

// NewPool creates an empty pool.
func NewPool() *Pool {
	p := &Pool{
		entries: make(map[uint64]*Entry),
		selIdx:  make(map[string]*selNode),
		likeIdx: make(map[string][]*Entry),
		semiIdx: make(map[[2]uint64]*Entry),
		tables:  make(map[string]*tableList),
	}
	for i := range p.shards {
		p.shards[i].bySig = make(map[string]*Entry)
	}
	return p
}

// shard maps a signature to its shard.
func (p *Pool) shard(sig string) *sigShard { return &p.shards[sigHash(sig)%numSigShards] }

// sigHash is FNV-1a over a signature in either spelling, so the hit
// path can hash its stack-encoded key without converting it.
func sigHash[S string | []byte](sig S) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(sig); i++ {
		h ^= uint32(sig[i])
		h *= 16777619
	}
	return h
}

// Tick advances and returns the virtual clock.
func (p *Pool) Tick() int64 { return p.tick.Add(1) }

// Now returns the current virtual clock without advancing it.
func (p *Pool) Now() int64 { return p.tick.Load() }

// Len returns the number of valid entries (cache lines). Caller holds
// the recycler writer lock when racing structural changes matters.
func (p *Pool) Len() int { return len(p.entries) }

// Bytes returns the memory attributed to pooled intermediates.
func (p *Pool) Bytes() int64 { return p.totalBytes }

// Reuses returns the lifetime pool-hit count: every hit served,
// surviving eviction of the entries themselves (unlike summing
// Entry.ReuseCount over the live pool).
func (p *Pool) Reuses() int64 { return p.reuses.Load() }

// ShardLockWait returns the hit path's shard-lock contention: how many
// read acquisitions blocked and the total time they spent blocked.
func (p *Pool) ShardLockWait() (waits int64, wait time.Duration) {
	return p.shardWaits.Load(), time.Duration(p.shardWaitNs.Load())
}

// Lookup finds a valid entry by signature, current for q. Safe
// without the writer lock: only the owning shard's read lock is taken.
func (p *Pool) Lookup(sig string, q Pins) *Entry {
	sh := p.shard(sig)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if e := sh.bySig[sig]; e != nil && current(e.stamps, q) {
		return e
	}
	return nil
}

// LookupHit is the hit-path variant of Lookup: it resolves the
// signature, compares the entry's stamps with q and copies its Result
// out under one shard read lock, so a concurrent refreshResult (which
// swaps both under the shard's write lock) can never be observed torn,
// nor a result paired with an applied version its walk stored later.
// Blocked acquisitions are counted for the contention telemetry. The
// key is the caller's encoding buffer (plan.AppendKey): indexing with
// string(key) does not allocate.
func (p *Pool) LookupHit(key []byte, q Pins) (e *Entry, res mal.Value, ok bool) {
	sh := &p.shards[sigHash(key)%numSigShards]
	if !sh.mu.TryRLock() {
		start := time.Now()
		sh.mu.RLock()
		wait := time.Since(start)
		p.shardWaitNs.Add(wait.Nanoseconds())
		p.shardWaits.Add(1)
		if m := p.metrics.Load(); m != nil {
			m.ShardLockWait.Observe(wait)
		}
	}
	e = sh.bySig[string(key)]
	if ok = e != nil && current(e.stamps, q); ok {
		res = e.Result
	}
	sh.mu.RUnlock()
	return e, res, ok
}

// Get returns an entry by id (valid or not yet garbage collected).
// Caller holds the recycler writer lock.
func (p *Pool) Get(id uint64) *Entry { return p.entries[id] }

// Add inserts a fully initialised entry, indexing it for matching and
// subsumption, appending it to the list of every table it reads, and
// wiring lineage dependent counts.
// Caller holds the recycler writer lock; the signature shard's write
// lock is taken here around the map splice.
func (p *Pool) Add(e *Entry) {
	p.nextID++
	e.ID = p.nextID
	e.valid.Store(true)
	e.Result.Prov = e.ID
	p.entries[e.ID] = e
	sh := p.shard(e.Sig)
	sh.mu.Lock()
	sh.bySig[e.Sig] = e
	sh.mu.Unlock()
	p.totalBytes += e.Bytes
	p.Admitted++
	for _, s := range e.stamps {
		s.l.entries, s.l.ids = append(s.l.entries, e), append(s.l.ids, e.ID)
	}
	if e.IsRangeSelect {
		p.selIdx[e.SelColKey] = selInsert(p.selIdx[e.SelColKey], &selNode{e: e, prio: selPrio(e.ID)})
	}
	if e.IsLike {
		p.likeIdx[e.LikeColKey] = append(p.likeIdx[e.LikeColKey], e)
	}
	if e.IsSemijoin {
		p.semiIdx[[2]uint64{e.SemiLeft, e.SemiRight}] = e
	}
	p.pushLeaf(e)
	for _, d := range e.DependsOn {
		if parent := p.entries[d]; parent != nil {
			if parent.dependents++; parent.dependents == 1 {
				p.dropLeaf(parent)
			}
		}
	}
}

// Remove evicts an entry from the pool and unhooks all its indexes.
// The caller is responsible for credit bookkeeping and holds the
// recycler writer lock; the signature shard's write lock is taken here
// around the map splice.
func (p *Pool) Remove(e *Entry) {
	if !e.valid.Load() {
		return
	}
	e.valid.Store(false)
	delete(p.entries, e.ID)
	sh := p.shard(e.Sig)
	sh.mu.Lock()
	if sh.bySig[e.Sig] == e {
		delete(sh.bySig, e.Sig)
	}
	sh.mu.Unlock()
	p.totalBytes -= e.Bytes
	p.Evicted++
	for _, s := range e.stamps {
		s.l.remove(e)
	}
	if e.IsRangeSelect {
		if t := selDelete(p.selIdx[e.SelColKey], e); t != nil {
			p.selIdx[e.SelColKey] = t
		} else {
			delete(p.selIdx, e.SelColKey)
		}
	}
	if e.IsLike {
		if s := removeEntry(p.likeIdx[e.LikeColKey], e); len(s) > 0 {
			p.likeIdx[e.LikeColKey] = s
		} else {
			delete(p.likeIdx, e.LikeColKey)
		}
	}
	if k := [2]uint64{e.SemiLeft, e.SemiRight}; e.IsSemijoin && p.semiIdx[k] == e {
		delete(p.semiIdx, k)
	}
	p.dropLeaf(e)
	for _, d := range e.DependsOn {
		if parent := p.entries[d]; parent != nil {
			if parent.dependents--; parent.dependents == 0 {
				p.pushLeaf(parent)
			}
		}
	}
}

// removeEntry swap-deletes e from s. The vacated slot is cleared: the
// slack of the backing array must not keep an evicted entry — and the
// BATs it holds — reachable.
func removeEntry(s []*Entry, e *Entry) []*Entry {
	for i, x := range s {
		if x == e {
			last := len(s) - 1
			s[i], s[last] = s[last], nil
			return s[:last]
		}
	}
	return s
}

// leafBefore is the frontier's heap order.
func leafBefore(a, b *Entry) bool {
	if a.heapTick != b.heapTick {
		return a.heapTick < b.heapTick
	}
	return a.ID < b.ID
}

// pushLeaf enters e into the frontier, keyed by its current
// LastUseTick. Caller holds the recycler writer lock.
func (p *Pool) pushLeaf(e *Entry) {
	e.heapTick = e.LastUseTick.Load()
	p.frontier = append(p.frontier, e)
	e.heapPos = len(p.frontier)
	p.siftUp(e.heapPos - 1)
}

// dropLeaf takes e out of the frontier (no-op when it is not in it).
// Caller holds the recycler writer lock.
func (p *Pool) dropLeaf(e *Entry) {
	i, last := e.heapPos-1, len(p.frontier)-1
	if i < 0 {
		return
	}
	e.heapPos = 0
	moved := p.frontier[last]
	p.frontier[last] = nil
	p.frontier = p.frontier[:last]
	if i == last {
		return
	}
	p.frontier[i] = moved
	moved.heapPos = i + 1
	p.siftDown(i)
	p.siftUp(i)
}

// popLeaf removes and returns the least recently used leaf, nil when
// the frontier is empty. A top whose LastUseTick moved since it was
// keyed is re-keyed and sifted down first — this is where hits taken
// without the writer lock reach the ordering, so the leaf returned is
// the exact LRU minimum. Caller holds the recycler writer lock.
func (p *Pool) popLeaf() *Entry {
	for len(p.frontier) > 0 {
		e := p.frontier[0]
		if t := e.LastUseTick.Load(); t != e.heapTick {
			e.heapTick = t
			p.siftDown(0)
			continue
		}
		p.dropLeaf(e)
		return e
	}
	return nil
}

func (p *Pool) siftUp(i int) {
	h := p.frontier
	for i > 0 {
		parent := (i - 1) / 2
		if !leafBefore(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		h[i].heapPos, h[parent].heapPos = i+1, parent+1
		i = parent
	}
}

func (p *Pool) siftDown(i int) {
	h := p.frontier
	for {
		least := i
		for c := 2*i + 1; c <= 2*i+2 && c < len(h); c++ {
			if leafBefore(h[c], h[least]) {
				least = c
			}
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		h[i].heapPos, h[least].heapPos = i+1, least+1
		i = least
	}
}

// addTable makes table's list, at version s. Caller holds the recycler
// writer lock.
func (p *Pool) addTable(table string, s catalog.Stamp) *tableList {
	l := &tableList{table: table, created: s.Created}
	l.applied.Store(s.Version)
	p.tables[table] = l
	return l
}

// SelectSupersets returns the valid range-select entries over the
// given column operand key whose range contains the target range and
// that are current for q, in (lower bound, id) order. Caller holds the
// recycler writer lock.
func (p *Pool) SelectSupersets(colKey string, t algebra.Range, q Pins) []*Entry {
	return currentOnly(p.selIdx[colKey].supersets(nil, t), q)
}

// SelectOverlaps returns the valid range-select entries over the column
// whose range intersects t (closed-interval semantics, see
// algebra.Range.Overlaps) and that are current for q, in (lower bound,
// id) order. Caller holds the recycler writer lock.
func (p *Pool) SelectOverlaps(colKey string, t algebra.Range, q Pins) []*Entry {
	return currentOnly(p.selIdx[colKey].overlaps(nil, t), q)
}

// LikeCandidates returns the valid likeselect entries over the column
// that are current for q. Caller holds the recycler writer lock.
func (p *Pool) LikeCandidates(colKey string, q Pins) []*Entry {
	return currentOnly(slices.Clone(p.likeIdx[colKey]), q)
}

// SemijoinOver returns the valid semijoin entry over the operands with
// the given provenances, nil when there is none current for q. Caller
// holds the recycler writer lock.
func (p *Pool) SemijoinOver(leftProv, rightProv uint64, q Pins) *Entry {
	if e := p.semiIdx[[2]uint64{leftProv, rightProv}]; e != nil && current(e.stamps, q) {
		return e
	}
	return nil
}

// currentOnly filters a candidate list (owned by the caller) down to
// the entries current for q.
func currentOnly(es []*Entry, q Pins) []*Entry {
	return slices.DeleteFunc(es, func(e *Entry) bool { return !current(e.stamps, q) })
}

// All returns all valid entries in id order. Caller holds the recycler
// writer lock when racing structural changes matters.
func (p *Pool) All() []*Entry {
	out := make([]*Entry, 0, len(p.entries))
	for _, e := range p.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ReusedStats returns the number of entries and bytes that have been
// reused at least once — the utilisation metrics of Figs. 7–8.
func (p *Pool) ReusedStats() (entries int, bytes int64) {
	for _, e := range p.entries {
		if e.ReuseCount.Load() > 0 {
			entries++
			bytes += e.Bytes
		}
	}
	return entries, bytes
}

// TypeRow is one line of the Table III breakdown.
type TypeRow struct {
	Op          string
	Lines       int
	Bytes       int64
	AvgCost     time.Duration
	ReusedLines int
	Reuses      int
	AvgSaved    time.Duration
}

// TypeBreakdown summarises pool content per instruction type,
// reproducing the shape of the paper's Table III.
func (p *Pool) TypeBreakdown() []TypeRow {
	agg := map[string]*TypeRow{}
	var costSum, savedSum map[string]time.Duration
	costSum = map[string]time.Duration{}
	savedSum = map[string]time.Duration{}
	for _, e := range p.entries {
		r := agg[e.OpName]
		if r == nil {
			r = &TypeRow{Op: e.OpName}
			agg[e.OpName] = r
		}
		r.Lines++
		r.Bytes += e.Bytes
		costSum[e.OpName] += e.Cost
		if n := e.ReuseCount.Load(); n > 0 {
			r.ReusedLines++
			r.Reuses += int(n)
			savedSum[e.OpName] += e.Saved()
		}
	}
	out := make([]TypeRow, 0, len(agg))
	for op, r := range agg {
		if r.Lines > 0 {
			r.AvgCost = costSum[op] / time.Duration(r.Lines)
		}
		if r.Reuses > 0 {
			r.AvgSaved = savedSum[op] / time.Duration(r.Reuses)
		}
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Bytes > out[j].Bytes })
	return out
}

// Dump renders the pool as a MAL-like block (Table I style) for
// debugging and documentation. An entry's line is rendered from its
// argument snapshot, taken at admission.
func (p *Pool) Dump() string {
	var sb strings.Builder
	sb.WriteString("recycle pool {\n")
	for _, e := range p.All() {
		fmt.Fprintf(&sb, "  e%-4d %-60s #%-8d %8dB cost=%-12v reuses=%d\n",
			e.ID, plan.RenderInstr(e.OpName, e.Args), e.Tuples, e.Bytes, e.Cost, e.ReuseCount.Load())
	}
	fmt.Fprintf(&sb, "} entries=%d bytes=%d\n", p.Len(), p.Bytes())
	return sb.String()
}
