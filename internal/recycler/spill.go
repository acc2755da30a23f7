package recycler

import (
	"slices"
	"time"

	"repro/internal/catalog"
	"repro/internal/mal"
	"repro/internal/plan"
)

// This file implements the recycle pool's second tier: a disk-backed
// store for evicted intermediates (the paper's eviction policies, §4.3,
// extended with demotion instead of destruction). Eviction victims are
// demoted to the tier keyed by their *canonical signature* — the
// run-time signature with every pool-entry provenance replaced by the
// producing entry's own canonical signature, recursively. Unlike the
// run-time signature (whose eN argument keys die with the entries they
// name), the canonical form is stable across evictions and across
// process restarts, so a spilled select over a spilled bind remains
// addressable after both left memory — and after the server itself
// restarted.
//
// Validity is keyed on catalog table versions: a spill record stores,
// for every persistent column the intermediate depends on, the version
// of its table the entry was computed at (its stamp), and only entries
// current with the catalog are demoted. A record is reloadable only
// while every dependency table still has exactly that version, and
// served only to a query that reads it (the pool's version compare);
// otherwise it is dropped lazily at the first lookup (or prewarm) that
// notices — spilled entries are never eagerly scanned by the §6 commit
// walks.
//
// Reloaded and prewarmed entries re-enter the pool as exact-match
// lines only: their subsumption metadata and argument snapshots are
// not rehydrated, so they serve repeat-template hits (and are found by
// column-wise invalidation through Deps) but do not join subsumption
// searches or delta propagation. Fresh admissions rebuild those
// abilities as the workload re-runs.
//
// The spiller serialises entry results off the hot path, and
// bind-class results are views over committed column storage: Append
// writes only past the published length and Delete replaces the
// tombstone list, so what a result can reach never changes under it.

// SpillArg describes one argument of a spilled instruction: either a
// scalar (its literal matching key) or a BAT (the canonical signature
// of the pool entry that produced it). It is exactly the canonical
// operand form of the shared signature type — the spill tier persists
// plan.Signature derivations, not a parallel identity.
type SpillArg = plan.CanonArg

// SpillDep pins a spilled record to the catalog state its content was
// computed from: the dependency table's catalog.Stamp.
type SpillDep struct {
	Ref ColumnRef
	// Created identifies the dependency table itself (its creation
	// commit sequence): a dropped-and-recreated table under the same
	// name restarts its version counter, and the creation stamp keeps
	// records of the old table from aliasing the new one.
	Created uint64
	// Version is the dependency table's committed-update counter the
	// content was computed at; any later commit makes the record stale.
	Version int64
}

// SpillRecord is one demoted intermediate, self-contained enough to be
// serialised, validated and re-admitted by a later process.
type SpillRecord struct {
	CanonSig string
	OpName   string
	Render   string
	Args     []SpillArg
	Deps     []SpillDep
	Cost     time.Duration
	Result   mal.Value
	Bytes    int64
	Tuples   int
}

// SpillTier is the disk tier the recycler demotes eviction victims to.
// Implementations (internal/store) must be safe for concurrent use;
// all methods may perform I/O and are called without recycler locks
// held, except Spill which may be called from the asynchronous spiller
// goroutine only.
type SpillTier interface {
	// Spill persists one record, overwriting any record with the same
	// canonical signature.
	Spill(rec *SpillRecord)
	// Lookup returns the record for a canonical signature, if present.
	Lookup(canon string) (*SpillRecord, bool)
	// Drop removes a record (lazy invalidation of stale entries).
	Drop(canon string)
	// Metas returns every stored record WITHOUT its Result payload
	// (startup pre-warming scans). The tier may hold far more than
	// fits in memory; Prewarm validates against the metadata and calls
	// Lookup only for records it actually admits, so peak memory is
	// bounded by the pool's own limits, not the tier size.
	Metas() []*SpillRecord
	// Empty reports whether the tier holds no records. It must be
	// cheap: the miss path bails on it before doing any lock or I/O
	// work toward a reload.
	Empty() bool
}

// recordStamps folds a record's per-column dependencies into one
// version stamp per table.
func recordStamps(deps []SpillDep) []tableStamp {
	var out []tableStamp
	for _, d := range deps {
		if !slices.ContainsFunc(out, func(s tableStamp) bool { return s.table == d.Ref.Table }) {
			out = append(out, tableStamp{table: d.Ref.Table, Stamp: catalog.Stamp{Created: d.Created, Version: d.Version}})
		}
	}
	return out
}

// depsFresh reports whether every dependency table still has the
// version the record was computed at.
func (r *Recycler) depsFresh(deps []SpillDep) bool {
	return current(recordStamps(deps), catalogPins{r.cat})
}

func depRefs(deps []SpillDep) []ColumnRef {
	out := make([]ColumnRef, len(deps))
	for i, d := range deps {
		out[i] = d.Ref
	}
	return out
}

// spillRecordLocked captures an entry for demotion with its version
// stamps. nil when the entry cannot be spilled (no canonical
// signature) or is not current with the catalog: a commit to a
// dependency table is visible but not walked yet, and the record would
// be stale on arrival. Caller holds the writer lock.
func (r *Recycler) spillRecordLocked(e *Entry) *SpillRecord {
	if e.CanonSig == "" || !e.valid.Load() || !current(e.stamps, catalogPins{r.cat}) {
		return nil
	}
	deps := make([]SpillDep, len(e.Deps))
	for i, d := range e.Deps {
		s := e.stampOf(d.Table)
		deps[i] = SpillDep{Ref: d, Created: s.Created, Version: s.Version}
	}
	return &SpillRecord{
		CanonSig: e.CanonSig,
		OpName:   e.OpName,
		Render:   e.Render,
		Args:     e.SpillArgs,
		Deps:     deps,
		Cost:     e.Cost,
		Result:   e.Result,
		Bytes:    e.Bytes,
		Tuples:   e.Tuples,
	}
}

// demoteLocked enqueues an eviction victim for the asynchronous
// spiller. Disk I/O must not run under the writer lock, so the record
// (immutable result included) is captured here and written out of
// band; a full queue drops the demotion — the tier is a cache, losing
// a spill only costs a future recomputation. Caller holds the writer
// lock.
func (r *Recycler) demoteLocked(e *Entry) {
	if r.cfg.Spill == nil || r.spillClosed {
		return
	}
	rec := r.spillRecordLocked(e)
	if rec == nil {
		return
	}
	select {
	case r.spillQ <- rec:
	default:
	}
}

// spiller drains the demotion queue onto the disk tier, observing the
// demote I/O latency when a tracer is attached.
func (r *Recycler) spiller() {
	defer close(r.spillDone)
	for rec := range r.spillQ {
		m := r.metrics.Load()
		var t0 time.Time
		if m != nil {
			t0 = time.Now()
		}
		r.cfg.Spill.Spill(rec)
		if m != nil {
			m.SpillIO.Observe(time.Since(t0))
		}
		r.spilled.Add(1)
	}
}

// closeSpiller stops the asynchronous spiller, flushing the queue.
func (r *Recycler) closeSpiller() {
	if r.cfg.Spill == nil {
		return
	}
	r.lockWriter()
	already := r.spillClosed
	r.spillClosed = true
	r.mu.Unlock()
	if already {
		return
	}
	close(r.spillQ)
	<-r.spillDone
}

// SpillAll demotes every currently valid pool entry to the disk tier,
// synchronously. A gracefully draining server calls it before exit so
// a restart can pre-warm from the full pool, not just from entries
// that happened to be evicted. The pool itself is left intact. Returns
// the number of records written.
func (r *Recycler) SpillAll() int {
	tier := r.cfg.Spill
	if tier == nil {
		return 0
	}
	r.lockWriter()
	var recs []*SpillRecord
	for _, e := range r.pool.All() {
		if rec := r.spillRecordLocked(e); rec != nil {
			recs = append(recs, rec)
		}
	}
	r.mu.Unlock()
	for _, rec := range recs {
		tier.Spill(rec)
		r.spilled.Add(1)
	}
	return len(recs)
}

// entryFromSpill rebuilds a pool entry from a validated record. The
// caller supplies the run-time signature (whose eN argument keys are
// only meaningful in this process) and the lineage edges, and holds
// the writer lock for the subsequent pool.Add. Bytes are re-derived
// from the decoded result, not copied from the record: the original
// entry may have been a cheap view over shared storage, but the
// decoded copy is fully materialised and must be accounted as such —
// otherwise MaxBytes would stop bounding a prewarmed pool.
func entryFromSpill(rec *SpillRecord, sig string, dependsOn []uint64, tick int64) *Entry {
	e := &Entry{
		Sig:       sig,
		CanonSig:  rec.CanonSig,
		OpName:    rec.OpName,
		Render:    rec.Render,
		Result:    rec.Result,
		Bytes:     rec.Result.Bytes(),
		Tuples:    rec.Tuples,
		Cost:      rec.Cost,
		AdmitTick: tick,
		SpillArgs: rec.Args,
		DependsOn: dependsOn,
		Deps:      depRefs(rec.Deps),
		stamps:    recordStamps(rec.Deps),
	}
	e.LastUseTick.Store(tick)
	return e
}

// reloadFromSpill is the exact-match miss path's disk-tier consult: if
// the instruction's canonical signature names a spilled record at the
// versions the query reads, the record is served as a hit and
// re-admitted to the pool when those are the versions the pool has
// applied; a record whose dependency versions are no longer the
// catalog's is dropped — the lazy invalidation of the tier.
// runtimeKey is the instance's encoded run-time key (the exact-match
// lookup just missed on it; the caller checked it is matchable); the
// canonical lookup key is derived from the instance's signature,
// lock-free, through the pool's canonByID mirror.
func (r *Recycler) reloadFromSpill(ctx *mal.Ctx, pc int, in *mal.Instr, args []mal.Value, runtimeKey []byte) (mal.EntryResult, bool) {
	tier := r.cfg.Spill
	if tier == nil || tier.Empty() {
		// Cheap gate: a cold tier must not add per-miss work.
		return mal.EntryResult{}, false
	}
	sig, _ := plan.Sign(in.Name(), args)
	canon, _, ok := sig.Canonical(r.pool.canonOf)
	if !ok {
		return mal.EntryResult{}, false
	}
	// The tier lookup is disk I/O; time it before any lock is taken so
	// the trace event and histogram observation are lock-free.
	m := r.metrics.Load()
	var t0 time.Time
	if ctx.Trace != nil || m != nil {
		t0 = time.Now()
	}
	rec, ok := tier.Lookup(canon)
	if !t0.IsZero() {
		d := time.Since(t0)
		if m != nil {
			m.SpillIO.Observe(d)
		}
		if ctx.Trace != nil {
			ctx.Trace.AddEvent(pc, "spill.lookup", d, canon)
		}
	}
	if !ok {
		return mal.EntryResult{}, false
	}
	// Stale records are dropped for good, records at a version *this*
	// query does not read stay for others.
	if !r.depsFresh(rec.Deps) {
		tier.Drop(canon)
		r.staleDropped.Add(1)
		return mal.EntryResult{}, false
	}
	stamps := recordStamps(rec.Deps)
	if !current(stamps, ctx) {
		return mal.EntryResult{}, false
	}

	key := string(runtimeKey)
	r.lockWriter()
	defer r.mu.Unlock()
	if e := r.pool.Lookup(key, ctx); e != nil {
		// A concurrent reload (or a fresh execution) re-admitted the
		// signature first; serve it.
		r.noteReuse(ctx, in, e)
		ctx.UpdateStats(func(s *mal.QueryStats) {
			s.Hits++
			if in.Module != "sql" {
				s.HitsNonBind++
			}
		})
		return mal.EntryResult{Hit: true, Val: e.Result, Reason: "hit:exact"}, true
	}
	// Make room within the configured bounds; reloads bypass the
	// admission policy (the instruction earned its place when it was
	// first admitted) but never the capacity limits, nor the version
	// rule (the record must be at the versions the pool has applied).
	// If the entry cannot be admitted, the value is still served — it
	// just stays disk-only. The decoded result is fully materialised,
	// so capacity is checked against its real size, not the (possibly
	// view-accounted) size recorded at demotion.
	admit := current(stamps, appliedPins{r})
	var buf [4]uint64
	protect := lineageOf(buf[:0], args)
	bytes := rec.Result.Bytes()
	if admit && r.cfg.MaxBytes > 0 && bytes > r.cfg.MaxBytes {
		admit = false
	}
	if admit && r.cfg.MaxBytes > 0 && r.pool.Bytes()+bytes > r.cfg.MaxBytes {
		admit = r.cleanCache(r.pool.Bytes()+bytes-r.cfg.MaxBytes, 0, protect)
	}
	if admit && r.cfg.MaxEntries > 0 && r.pool.Len()+1 > r.cfg.MaxEntries {
		admit = r.cleanCache(0, r.pool.Len()+1-r.cfg.MaxEntries, protect)
	}
	val := rec.Result
	if admit {
		// Like prewarmed entries, reloads keep TemplID == 0: they were
		// admitted without paying a credit, so the credit bookkeeping
		// (reuse refunds, eviction refunds) must not attach to the
		// current instruction — it would mint credits never charged.
		e := entryFromSpill(rec, key, lineageOf(nil, args), r.pool.Tick())
		r.pool.Add(e)
		e.pinnedQuery.Store(ctx.QueryID)
		val = e.Result
		r.noteReuse(ctx, in, e)
	} else {
		ctx.UpdateStats(func(s *mal.QueryStats) {
			s.GlobalHits++
			s.SavedGlobal += rec.Cost
			s.SavedTime += rec.Cost
		})
	}
	r.reloaded.Add(1)
	ctx.UpdateStats(func(s *mal.QueryStats) {
		s.Hits++
		if in.Module != "sql" {
			s.HitsNonBind++
		}
	})
	reason := "hit:spill-reload"
	if !admit {
		reason = "hit:spill-disk-only"
	}
	return mal.EntryResult{Hit: true, Val: val, Reason: reason}, true
}

// Prewarm loads every spilled record at the tables' current versions
// back into the pool, resolving lineage bottom-up: a record becomes
// admissible once all its BAT arguments' canonical signatures resolve
// to already-present entries, and its run-time signature is rebuilt
// from their fresh entry ids. Stale records are dropped from the tier.
// Servers call it once at startup, before accepting traffic; capacity
// limits are respected (prewarming stops admitting rather than
// evicting). Returns the number of entries admitted.
func (r *Recycler) Prewarm() int {
	tier := r.cfg.Spill
	if tier == nil {
		return 0
	}
	metas := tier.Metas()
	if len(metas) == 0 {
		return 0
	}
	r.lockWriter()
	defer r.mu.Unlock()
	byCanon := make(map[string]uint64, len(metas))
	for _, e := range r.pool.All() {
		if e.CanonSig != "" {
			byCanon[e.CanonSig] = e.ID
		}
	}
	n := 0
	pending := metas
	for progress := true; progress && len(pending) > 0; {
		progress = false
		var next []*SpillRecord
		for _, meta := range pending {
			if _, dup := byCanon[meta.CanonSig]; dup {
				continue
			}
			if !r.depsFresh(meta.Deps) {
				//lint:allow lockorder Prewarm runs once at startup before any query traffic; dropping stale records under the writer lock keeps admission atomic
				tier.Drop(meta.CanonSig)
				r.staleDropped.Add(1)
				progress = true
				continue
			}
			if !current(recordStamps(meta.Deps), appliedPins{r}) {
				continue // a commit to a dependency table is still being applied
			}
			sig, dependsOn, ok := r.sigFromSpill(meta, byCanon)
			if !ok {
				next = append(next, meta)
				continue
			}
			// Cheap pre-checks on the recorded size, then load the full
			// record (Result included) only for survivors — the final
			// check re-runs against the materialised size.
			if r.cfg.MaxBytes > 0 && r.pool.Bytes()+meta.Bytes > r.cfg.MaxBytes {
				continue
			}
			if r.cfg.MaxEntries > 0 && r.pool.Len()+1 > r.cfg.MaxEntries {
				continue
			}
			if e := r.pool.Lookup(sig, appliedPins{r}); e != nil {
				byCanon[meta.CanonSig] = e.ID
				progress = true
				continue
			}
			//lint:allow lockorder Prewarm runs once at startup before any query traffic; loading under the writer lock keeps admission atomic
			rec, ok := tier.Lookup(meta.CanonSig)
			if !ok {
				progress = true
				continue
			}
			if r.cfg.MaxBytes > 0 && r.pool.Bytes()+rec.Result.Bytes() > r.cfg.MaxBytes {
				continue
			}
			e := entryFromSpill(rec, sig, dependsOn, r.pool.Tick())
			r.pool.Add(e)
			byCanon[rec.CanonSig] = e.ID
			r.prewarmed.Add(1)
			n++
			progress = true
		}
		pending = next
	}
	return n
}

// sigFromSpill rebuilds a record's run-time signature by substituting
// the fresh entry id of every BAT argument's canonical signature.
// ok=false while an argument's producer has not been admitted yet.
func (r *Recycler) sigFromSpill(rec *SpillRecord, byCanon map[string]uint64) (sig string, dependsOn []uint64, ok bool) {
	return plan.RuntimeKey(rec.OpName, rec.Args, func(canon string) (uint64, bool) {
		id, found := byCanon[canon]
		return id, found
	})
}
