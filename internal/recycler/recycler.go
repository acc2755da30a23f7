package recycler

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/mal"
	"repro/internal/plan"
	"repro/internal/trace"
)

// SyncMode selects how the pool reacts to updates of persistent data
// (paper §6). There is one mechanism — a commit's affected entries
// are walked through one table of per-operator-class delta rules, and
// an entry without an applicable rule invalidates (delta.go) — and a
// mode is a preset naming which classes' rules are switched on.
type SyncMode int

// Synchronisation presets.
const (
	// SyncInvalidate switches every rule off: each intermediate
	// affected by an update is invalidated at once. This is what the
	// paper's implementation evaluates (§6.4); its column-wise
	// invalidation is table-wise here, since every commit writes every
	// column of its table.
	SyncInvalidate SyncMode = iota
	// SyncPropagate is the paper's §6.3 operator set (Fig. 3): binds,
	// filters, the zero-cost views (reverse, mirror, markT) and
	// insert-only joins carry the delta; the rest invalidates.
	SyncPropagate
	// SyncMaintain treats select-project-aggregate plans over a single
	// base table as materialized views: binds, filters, projections
	// and flat additive aggregates carry the delta, deletes included;
	// the rest invalidates.
	SyncMaintain
)

// Config parametrises a Recycler.
type Config struct {
	// Admission selects the admission policy; Credits is its k
	// parameter (used by Credit and Adapt).
	Admission AdmissionKind
	Credits   int

	// Eviction selects the eviction policy.
	Eviction EvictionKind

	// MaxBytes caps pooled intermediate memory (0 = unlimited).
	MaxBytes int64
	// MaxEntries caps the number of cache lines (0 = unlimited).
	MaxEntries int

	// Subsumption enables singleton subsumption (select, like,
	// semijoin); CombinedSubsumption additionally enables the
	// Algorithm 2 search over sets of overlapping selects.
	Subsumption         bool
	CombinedSubsumption bool

	// Sync selects update synchronisation behaviour.
	Sync SyncMode

	// Spill attaches a pool image store (internal/store): SpillAll
	// writes the pool's recipes to it on a graceful drain and Prewarm
	// recomputes them at startup (spill.go). Nothing else touches it.
	// Nil disables both.
	Spill SpillTier
}

// Recycler is the run-time module: it implements mal.RecyclerHook
// around marked instructions and catalog.UpdateListener for update
// synchronisation.
//
// Locking hierarchy (acquire strictly in this order, release freely):
//
//  1. mu — the writer lock. Serialises every structural pool change:
//     admission, eviction, invalidation, delta propagation, Reset and
//     the subsumption-candidate scans. Lineage edges, the subsumption
//     indexes, the version stamps and the byte accounting are only
//     consistent under it.
//  2. activeMu — guards the active-query set eviction pins entries
//     for. BeginQuery/EndQuery take it exclusively, eviction shared.
//  3. sigShard.mu — per-shard RWMutexes over the signature index
//     (see Pool). The exact-match hit path takes only a shard read
//     lock; structural writers (Add/Remove/refreshResult) take the
//     shard write lock while already holding mu.
//  4. admission.mu — the admission policy's own mutex (leaf); credit
//     bookkeeping is safe from both locked and lock-free callers.
//
// The exact-match hit path — the common case once the pool is warm —
// therefore runs without the writer lock entirely: signature hash,
// one shard read lock, the version compare against the query's pins,
// then atomic counter updates on the entry. Combined subsumption
// executes its piecewise selects and merge outside all locks and
// re-validates its inputs after reacquiring mu (see combinedSelect),
// so a concurrent invalidation can never resurrect stale pieces.
// Per-query statistics go straight into ctx.Stats: a query calls the
// hook only from its own goroutine.
//
// Versions. Every query reads one version of each table (mal.Ctx.Pin)
// and every entry records, per dependency table, the version since
// which its result holds (Entry.stamps); the table's list holds the
// version the pool has applied (tableList.applied). The pool serves an
// entry only to a query whose pins fall between the two — the pool's
// lookup and scan accessors take the pins and do the compare — and
// admits a result only when the query's pins equal the applied
// versions: the next commit walk then finds every entry it must prove
// or move holding at its predecessor.
type Recycler struct {
	cfg  Config
	pool *Pool
	adm  *admission
	cat  *catalog.Catalog

	// mu is the writer lock (level 1 above).
	mu sync.Mutex

	// writerWaits/writerWaitNs count blocked writer-lock acquisitions
	// and the total time they spent blocked (contention telemetry).
	writerWaits  atomic.Int64
	writerWaitNs atomic.Int64

	// activeMu (level 2) guards active, the queries currently executing
	// (BeginQuery .. EndQuery). Pool entries last touched by an active
	// query are pinned against eviction.
	activeMu sync.RWMutex
	active   map[uint64]struct{}

	// Pool-image counters (see spill.go and Stats).
	spilled   atomic.Int64
	prewarmed atomic.Int64

	// Delta-engine counters (see Stats): entries whose results a rule
	// carried across commits, those of them whose result it changed,
	// entries that fell back to invalidation, total time spent walking
	// and total delta rows physically applied.
	maintained       atomic.Int64
	reached          atomic.Int64
	maintainFallback atomic.Int64
	maintainNs       atomic.Int64
	deltaRows        atomic.Int64

	// Observability plumbing (PR 9). tracer receives commit-maintenance
	// summary events (emitted after the writer lock is released —
	// machine-checked); metrics mirrors tracer's histogram set for the
	// wait-free lock-wait observations. Both are atomic pointers
	// because SetTracer may run while queries are already running; nil
	// means tracing is off.
	tracer  atomic.Pointer[trace.Tracer]
	metrics atomic.Pointer[trace.Metrics]

	// testBeforeRevalidate, when set by tests, runs between combined
	// subsumption's unlocked piecewise execution and its re-validation
	// under the writer lock — the window a concurrent invalidation
	// must not be able to slip stale pieces through.
	testBeforeRevalidate func()
	// testOnVictim, when set by tests, observes every capacity eviction
	// in order (the victim-equivalence differential suite).
	testOnVictim func(*Entry)
}

// New creates a recycler over the given catalog.
func New(cat *catalog.Catalog, cfg Config) *Recycler {
	r := &Recycler{
		cfg:    cfg,
		pool:   NewPool(),
		adm:    newAdmission(cfg.Admission, cfg.Credits),
		cat:    cat,
		active: make(map[uint64]struct{}),
	}
	if cat != nil {
		cat.AddListener(r)
	}
	return r
}

// SetTracer attaches the observability layer: the recycler emits
// commit summaries to it and observes writer/shard lock waits into
// its histograms. Safe to call at any time (atomic publication);
// engines wire it before serving traffic.
func (r *Recycler) SetTracer(t *trace.Tracer) {
	if t == nil {
		return
	}
	r.tracer.Store(t)
	r.metrics.Store(t.Metrics())
	r.pool.metrics.Store(t.Metrics())
}

// lockWriter acquires the writer lock, recording contention. The
// TryLock fast path keeps the uncontended case free of clock reads.
// The histogram observation is wait-free (the lint-sanctioned trace
// operation under a held lock).
func (r *Recycler) lockWriter() {
	if r.mu.TryLock() {
		return
	}
	start := time.Now()
	r.mu.Lock()
	wait := time.Since(start)
	r.writerWaitNs.Add(wait.Nanoseconds())
	r.writerWaits.Add(1)
	if m := r.metrics.Load(); m != nil {
		m.WriterLockWait.Observe(wait)
	}
}

// Close detaches the recycler from the catalog's listener list and
// empties the pool. Benchmarks that cycle many recycler
// configurations over one shared catalog call it when a configuration
// retires, so dead pools are unreachable and later DML no longer pays
// for notifying them.
func (r *Recycler) Close() {
	if r.cat != nil {
		r.cat.RemoveListener(r)
	}
	r.Reset()
}

// Pool exposes the recycle pool for inspection and experiments.
// Most Pool methods require the writer lock; observers outside the
// recycler should use the locked wrappers below (PoolLen, PoolBytes,
// PoolReusedStats, PoolTypeBreakdown, DumpPool) or Snapshot.
func (r *Recycler) Pool() *Pool { return r.pool }

// PoolLen returns the number of pool entries. Like Snapshot, it takes
// the writer lock without the contention instrumentation: observers
// must not inflate the telemetry they read.
func (r *Recycler) PoolLen() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pool.Len()
}

// PoolBytes returns the pool's resident payload bytes under the
// writer lock.
func (r *Recycler) PoolBytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pool.Bytes()
}

// PoolReusedStats returns the reused-entry count and bytes under the
// writer lock.
func (r *Recycler) PoolReusedStats() (entries int, bytes int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pool.ReusedStats()
}

// PoolTypeBreakdown returns the per-instruction-type pool breakdown
// under the writer lock.
func (r *Recycler) PoolTypeBreakdown() []TypeRow {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pool.TypeBreakdown()
}

// DumpPool renders the pool content under the writer lock.
func (r *Recycler) DumpPool() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pool.Dump()
}

// Config returns the active configuration.
func (r *Recycler) Config() Config { return r.cfg }

// Stats is a point-in-time snapshot of the recycler's lifetime
// counters and current pool utilisation.
type Stats struct {
	Entries       int
	Bytes         int64
	ReusedEntries int
	ReusedBytes   int64
	Admitted      int64
	Evicted       int64
	Invalidated   int64
	// Reuses counts every pool hit served over the recycler's lifetime,
	// including hits on entries that were later evicted or invalidated.
	Reuses int64

	// Lock contention telemetry: how many acquisitions of the writer
	// lock (admission/eviction/invalidation/subsumption scans) and of
	// the hit path's signature-shard read locks blocked, and the total
	// time they spent blocked. Uncontended acquisitions cost nothing
	// and are not counted.
	WriterLockWaits int64
	WriterLockWait  time.Duration
	ShardLockWaits  int64
	ShardLockWait   time.Duration

	// Pool-image counters (zero when no image store is attached):
	// Spilled counts records SpillAll wrote, Prewarmed counts entries
	// Prewarm recomputed and admitted.
	Spilled   int64
	Prewarmed int64

	// Delta-engine counters, counted under every preset that switches
	// a rule on (SyncPropagate, SyncMaintain) and zero under
	// SyncInvalidate, which has no rule to fall back from and reports
	// Invalidated only: Maintained counts entries a delta rule carried
	// across a commit, Reached those of them whose result the rule
	// changed (the rest it proved unchanged), MaintainFallback counts
	// affected entries that invalidated instead (no rule in the
	// preset, the rule failed, or a parent fell back), MaintainTime is
	// the total time spent in the commit walk, and DeltaRows counts the
	// delta rows physically applied.
	Maintained       int64
	Reached          int64
	MaintainFallback int64
	MaintainTime     time.Duration
	DeltaRows        int64
}

// Snapshot captures the current statistics. It takes the writer lock
// without the contention instrumentation: a stats observer blocking
// behind an admission must not inflate the very telemetry it reads.
func (r *Recycler) Snapshot() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	re, rb := r.pool.ReusedStats()
	sw, swd := r.pool.ShardLockWait()
	return Stats{
		Entries:          r.pool.Len(),
		Bytes:            r.pool.Bytes(),
		ReusedEntries:    re,
		ReusedBytes:      rb,
		Admitted:         r.pool.Admitted,
		Evicted:          r.pool.Evicted,
		Invalidated:      r.pool.Invalidated,
		Reuses:           r.pool.Reuses(),
		WriterLockWaits:  r.writerWaits.Load(),
		WriterLockWait:   time.Duration(r.writerWaitNs.Load()),
		ShardLockWaits:   sw,
		ShardLockWait:    swd,
		Spilled:          r.spilled.Load(),
		Prewarmed:        r.prewarmed.Load(),
		Maintained:       r.maintained.Load(),
		Reached:          r.reached.Load(),
		MaintainFallback: r.maintainFallback.Load(),
		MaintainTime:     time.Duration(r.maintainNs.Load()),
		DeltaRows:        r.deltaRows.Load(),
	}
}

// AdmissionStats is a point-in-time snapshot of the admission policy's
// lifetime decisions (paper §4.2). Promoted/Demoted are only nonzero
// under the adapt policy.
type AdmissionStats struct {
	Policy   string // "keepall", "crd" or "adapt"
	Credits  int    // the k parameter (initial credits per instruction)
	Granted  int64  // admissions allowed
	Denied   int64  // admissions refused (credits exhausted / blocked)
	Refunded int64  // credits returned after a failed admission
	Promoted int64  // adapt: instructions granted unlimited credits
	Demoted  int64  // adapt: instructions blocked from the pool
	Tracked  int    // template instructions with credit state
}

// AdmissionStats captures the admission policy's decision counters.
func (r *Recycler) AdmissionStats() AdmissionStats {
	return r.adm.snapshot(r.cfg.Admission.String())
}

// ActiveQueries returns the number of queries currently between
// BeginQuery and EndQuery — the queries whose last-touched pool
// entries are pinned against eviction. A gracefully drained server
// must see this reach zero before releasing the engine.
func (r *Recycler) ActiveQueries() int {
	r.activeMu.RLock()
	defer r.activeMu.RUnlock()
	return len(r.active)
}

// Reset empties the pool (the experiments' "clean RP between
// batches"), going through the regular eviction path so credits of
// globally reused instances are returned.
func (r *Recycler) Reset() {
	r.lockWriter()
	defer r.mu.Unlock()
	for _, e := range r.pool.All() {
		r.evict(e)
	}
}

// BeginQuery starts a query invocation: the recycler notes the
// invocation for the adaptive admission policy and adds the query to
// the active set used for eviction pinning. Pair with EndQuery.
func (r *Recycler) BeginQuery(queryID uint64, templID uint64) {
	r.activeMu.Lock()
	r.active[queryID] = struct{}{}
	r.activeMu.Unlock()
	r.adm.beginQuery(templID)
}

// EndQuery marks a query invocation finished, unpinning the pool
// entries it touched so eviction may reclaim them.
func (r *Recycler) EndQuery(queryID uint64) {
	r.activeMu.Lock()
	delete(r.active, queryID)
	r.activeMu.Unlock()
}

// activeSnapshot appends the active-query set to dst, so eviction can
// test pins without re-taking activeMu per leaf.
func (r *Recycler) activeSnapshot(dst []uint64) []uint64 {
	r.activeMu.RLock()
	defer r.activeMu.RUnlock()
	for q := range r.active {
		dst = append(dst, q)
	}
	return dst
}

// appliedLocked returns table qname's list, made at the catalog's
// current version the first time the table is asked about; nil when
// there is no such table. A commit in flight at that moment is
// harmless: the list has applied it already, so its walk has nothing
// to do (OnUpdate). Caller holds the writer lock.
func (r *Recycler) appliedLocked(qname string) *tableList {
	if l := r.pool.tables[qname]; l != nil {
		return l
	}
	if r.cat == nil {
		return nil
	}
	snap, ok := r.cat.Pin(qname)
	if !ok {
		return nil
	}
	return r.pool.addTable(qname, snap.Stamp)
}

// poolKey encodes the pool key of an instruction instance with
// plan.AppendKey, the key Entry probes with. matchable=false reports a
// BAT argument with unknown provenance (the lineage was cut, e.g. by
// an exhausted credit): neither matching nor admission is possible.
func poolKey(in *mal.Instr, args []mal.Value) (key string, matchable bool) {
	var buf [128]byte
	k, matchable := plan.AppendKey(buf[:0], in.Name(), args)
	if !matchable {
		return "", false
	}
	return string(k), true
}

// Entry implements recycleEntry (Algorithm 1, lines 9–17): exact
// matching first, then subsumption.
//
// The exact-match path is read-mostly: it takes no writer lock, only
// the signature shard's read lock (to resolve the entry, compare its
// version stamps with the query's pins and copy its Result
// consistently), then updates the entry's reuse counters atomically.
// A hit may race a concurrent eviction of the same entry; that is
// benign — results are immutable and the counters of a
// just-removed entry are simply forgotten. A hit racing a commit is
// served the result at the version the query reads or none: the walk
// swaps result and stamps together. The subsumption paths scan pool
// indexes and therefore take the writer lock (see subsume.go).
//
// The exact probe allocates nothing: the key is encoded into a stack
// buffer and the pool indexes with it directly.
func (r *Recycler) Entry(ctx *mal.Ctx, pc int, in *mal.Instr, args []mal.Value) mal.EntryResult {
	var buf [256]byte
	key, matchable := plan.AppendKey(buf[:0], in.Name(), args)
	if !matchable {
		return mal.EntryResult{}
	}
	if e, res, ok := r.pool.LookupHit(key, ctx); ok {
		r.noteReuse(ctx, in, e)
		ctx.Stats.Hits++
		if in.Module != "sql" {
			ctx.Stats.HitsNonBind++
		}
		return mal.EntryResult{Hit: true, Val: res, Reason: "hit:exact"}
	}
	if r.cfg.Subsumption {
		switch in.Name() {
		case "algebra.select":
			return r.subsumeSelect(ctx, pc, in, args)
		case "algebra.likeselect":
			return r.subsumeLike(ctx, in, args)
		case "algebra.semijoin":
			return r.subsumeSemijoin(ctx, in, args)
		}
	}
	return mal.EntryResult{}
}

// noteReuse updates the entry's and the query's reuse statistics and
// the credit bookkeeping. All entry-side updates are atomic, so it is
// safe from the lock-free hit path as well as from under the writer
// lock (subsumption paths).
func (r *Recycler) noteReuse(ctx *mal.Ctx, in *mal.Instr, e *Entry) {
	e.ReuseCount.Add(1)
	r.pool.reuses.Add(1)
	e.LastUseTick.Store(r.pool.Tick())
	e.SavedTotal.Add(int64(e.Cost))
	e.pinnedQuery.Store(ctx.QueryID)
	local := e.QueryID == ctx.QueryID
	key := instrKey{templ: e.TemplID, pc: e.PC}
	if local {
		r.adm.onLocalReuse(key)
	} else {
		r.adm.onGlobalReuse(key)
	}
	if !local {
		e.GlobalReuse.Store(true)
	}
	s := &ctx.Stats
	if local {
		s.LocalHits++
		s.SavedLocal += e.Cost
	} else {
		s.GlobalHits++
		s.SavedGlobal += e.Cost
	}
	s.SavedTime += e.Cost
}

// Exit implements recycleExit (Algorithm 1, lines 18–23): admission of
// the freshly computed intermediate, after making room if needed. The
// admission outcome is recorded on the query trace AFTER the writer
// lock is released (lockorder's trace rule), before the span ends.
func (r *Recycler) Exit(ctx *mal.Ctx, pc int, in *mal.Instr, args []mal.Value, ret mal.Value, elapsed time.Duration, rw *mal.Rewrite) uint64 {
	key, matchable := poolKey(in, args)
	if !matchable {
		ctx.Trace.SetAdmission(pc, "skip:unmatchable")
		return 0
	}
	r.lockWriter()
	prov, reason := r.exitLocked(ctx, pc, in, args, ret, elapsed, rw, key)
	r.mu.Unlock()
	ctx.Trace.SetAdmission(pc, reason)
	return prov
}

// exitLocked is the admission body; the caller holds the writer lock.
// Combined subsumption admits its computed result through this path
// after its re-validation step, and Prewarm every recomputed record.
// The returned reason explains the outcome for the query trace.
func (r *Recycler) exitLocked(ctx *mal.Ctx, pc int, in *mal.Instr, args []mal.Value, ret mal.Value, elapsed time.Duration, rw *mal.Rewrite, sigKey string) (uint64, string) {
	stamps, deny := r.stampsFor(ctx, in, args)
	if deny != "" {
		return 0, deny
	}
	if existing := r.pool.Lookup(sigKey, ctx); existing != nil {
		// Another query re-admitted the same signature concurrently.
		// Refresh the survivor's recency and pin it for this query,
		// so the entry this query is about to rely on is not the
		// immediate eviction victim.
		existing.LastUseTick.Store(r.pool.Tick())
		existing.pinnedQuery.Store(ctx.QueryID)
		return existing.ID, "admit:dup-refreshed"
	}
	key := instrKey{templ: ctx.Template.ID, pc: pc}
	if !r.adm.admit(key) {
		return 0, "deny:admission-policy"
	}
	bytes := ret.Bytes()
	if r.cfg.MaxBytes > 0 && bytes > r.cfg.MaxBytes {
		r.adm.refund(key)
		return 0, "deny:too-large:refunded"
	}
	var buf [4]uint64
	protect := lineageOf(buf[:0], args)
	if r.cfg.MaxBytes > 0 && r.pool.Bytes()+bytes > r.cfg.MaxBytes {
		if !r.cleanCache(r.pool.Bytes()+bytes-r.cfg.MaxBytes, 0, protect) {
			r.adm.refund(key)
			return 0, "deny:no-room:refunded"
		}
	}
	if r.cfg.MaxEntries > 0 && r.pool.Len()+1 > r.cfg.MaxEntries {
		if !r.cleanCache(0, r.pool.Len()+1-r.cfg.MaxEntries, protect) {
			r.adm.refund(key)
			return 0, "deny:no-room:refunded"
		}
	}
	e := r.buildEntry(ctx, pc, in, args, ret, elapsed, sigKey, stamps)
	if rw != nil {
		e.SubsetOf = rw.SubsetOf
	}
	r.pool.Add(e)
	e.pinnedQuery.Store(ctx.QueryID)
	return e.ID, "admit:granted"
}

// lineageOf appends the distinct pool-entry provenances of the BAT
// arguments to dst: the lineage edges of the instruction's result, and
// the entries an admission of it must not evict.
func lineageOf(dst []uint64, args []mal.Value) []uint64 {
	for _, a := range args {
		if a.IsBat() && a.Prov != 0 && !slices.Contains(dst, a.Prov) {
			dst = append(dst, a.Prov)
		}
	}
	return dst
}

// operands returns args as an entry keeps them: a BAT operand as its
// producer's id alone, which is all the commit walk, the pool image and
// the dumps read of it. Its rows — a parent's result at admission, or
// a bind's table version — would otherwise stay reachable for as long
// as the entry does.
func operands(args []mal.Value) []mal.Value {
	out := append([]mal.Value(nil), args...)
	for i, a := range out {
		if a.IsBat() {
			out[i] = mal.Value{Kind: mal.VBat, Prov: a.Prov}
		}
	}
	return out
}

// buildEntry captures an executed instruction instance into a pool
// entry, deriving lineage edges and subsumption metadata. Caller holds
// the writer lock (the parents are looked up in the entries map).
func (r *Recycler) buildEntry(ctx *mal.Ctx, pc int, in *mal.Instr, args []mal.Value, ret mal.Value, elapsed time.Duration, key string, stamps []tableStamp) *Entry {
	now := r.pool.Tick()
	e := &Entry{
		Sig:       key,
		OpName:    in.Name(),
		Result:    ret,
		Bytes:     ret.Bytes(),
		Tuples:    ret.Tuples(),
		Cost:      elapsed,
		AdmitTick: now,
		QueryID:   ctx.QueryID,
		TemplID:   ctx.Template.ID,
		PC:        pc,
		Args:      operands(args),
	}
	e.LastUseTick.Store(now)
	e.deltaClass = plan.ClassifyOp(e.OpName)
	if p, ok := mal.FilterPred(e.OpName, args); ok {
		e.pred = &p
	}
	e.DependsOn = lineageOf(nil, args)
	for i, a := range args[:min(len(args), len(e.parents))] {
		if a.IsBat() && a.Prov != 0 {
			e.parents[i] = r.pool.Get(a.Prov)
		}
	}
	e.stamps = stamps

	switch e.OpName {
	case "algebra.select":
		// The range index orders entries by their bounds, and NaN has
		// no place in an order: such a select stays an exact-match line.
		if p := e.pred; p != nil && !isNaN(p.Range.Lo) && !isNaN(p.Range.Hi) {
			e.IsRangeSelect = true
			e.SelColKey = args[0].Key()
			e.Sel = p.Range
		}
	case "algebra.likeselect":
		e.IsLike = true
		e.LikeColKey = args[0].Key()
		e.LikePat = args[1].S
	case "algebra.semijoin":
		e.IsSemijoin = true
		e.SemiLeft = args[0].Prov
		e.SemiRight = args[1].Prov
	}
	return e
}

func isNaN(v any) bool {
	f, ok := v.(float64)
	return ok && f != f
}

// stampsFor returns the tables an instruction's result reads, each
// stamped with the version q reads: a bind reads its table, a join
// index its table and the index's parent table, and any other
// instruction the union of its BAT operands' tables. deny is non-empty
// when the result must not be admitted. Caller holds the writer lock
// (operand lookups walk the entries map).
func (r *Recycler) stampsFor(q Pins, in *mal.Instr, args []mal.Value) (stamps []tableStamp, deny string) {
	add := func(l *tableList) {
		if !slices.ContainsFunc(stamps, func(s tableStamp) bool { return s.l == l }) {
			stamps = append(stamps, tableStamp{l: l})
		}
	}
	unknown := false // a table the catalog does not have
	addTable := func(qname string) {
		if l := r.appliedLocked(qname); l != nil {
			add(l)
		} else {
			unknown = true
		}
	}
	switch in.Name() {
	case "sql.bind":
		addTable(args[0].S + "." + args[1].S)
	case "sql.bindIdxbat":
		addTable(args[0].S + "." + args[1].S)
		if r.cat != nil {
			if t := r.cat.Table(args[0].S, args[1].S); t != nil {
				if parent := t.JoinIndexParent(args[2].S); parent != nil {
					addTable(parent.QName())
				}
			}
		}
	default:
		for _, a := range args {
			if !a.IsBat() || a.Prov == 0 {
				continue
			}
			parent := r.pool.Get(a.Prov)
			if parent == nil || !parent.valid.Load() {
				// The operand's pool entry disappeared while the query
				// was in flight (invalidation or a footnote-3
				// eviction), so the tables the result reads are
				// unknowable. Admitting it would create an entry that
				// no commit walk can find — a stale result resurrected
				// past the update that killed its lineage.
				return nil, "deny:lineage-unknown"
			}
			for _, s := range parent.stamps {
				add(s.l)
			}
		}
	}
	if unknown {
		return nil, "deny:version-stale"
	}
	for i, s := range stamps {
		// q must read the version the pool has applied: not one a
		// commit already walked past, nor one whose walk is still to
		// come — either way the next walk would not find the entry
		// holding at its predecessor.
		pin, ok := q.Pin(s.l.table)
		if !ok || pin.Stamp != (catalog.Stamp{Created: s.l.created, Version: s.l.applied.Load()}) {
			return nil, "deny:version-stale"
		}
		stamps[i].since = pin.Stamp.Version
	}
	return stamps, ""
}
