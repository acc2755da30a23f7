package recycler

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/mal"
)

// This file is the catalog.UpdateListener half of recycle pool
// synchronisation with updates (paper §6): it orders a commit's pool
// fix-up against the lock-free hit path. The fix-up itself — one
// lineage walk over a rule table — is delta.go.
//
// Ordering contract with the lock-free hit path: OnBeforeUpdate
// publishes pending++ (stateMu) BEFORE the mutation becomes visible,
// and OnUpdate publishes the epoch bump and pending-- (stateMu) only
// AFTER the pool fix-up (applyCommit) completed under the writer lock.
// While pending > 0, every hit and admission touching the table is
// refused, so a reader can never pair a pre-update pool result with a
// post-update verdict from the epoch guard — the guard state a reader
// observes is always at least as new as the pool state it read.

// OnBeforeUpdate implements catalog.UpdateListener: it marks the
// table as having a commit in flight and advances the update epoch
// before the mutation becomes visible. Queries already running are
// caught by the epoch bump (their began is now older than the table's
// eventual commit epoch); queries that begin inside the window are
// caught by the pending counter. Together they close the gap in which
// a query could mix post-commit binds with pre-commit pool entries.
func (r *Recycler) OnBeforeUpdate(t *catalog.Table) {
	r.stateMu.Lock()
	defer r.stateMu.Unlock()
	r.epoch++
	r.tableEpoch[t.QName()] = r.epoch
	r.pending[t.QName()]++
}

// OnAbortUpdate implements catalog.UpdateListener: the announced
// statement committed nothing. The table's epoch stays bumped — a
// harmless conservatism for queries concurrent with the no-op.
func (r *Recycler) OnAbortUpdate(t *catalog.Table) {
	r.stateMu.Lock()
	defer r.stateMu.Unlock()
	if r.pending[t.QName()] > 0 {
		r.pending[t.QName()]--
	}
}

// preset resolves a SyncMode to what it is: a name for the commit
// trace event and a mask over the one rule table (delta.go).
func (m SyncMode) preset() (name string, rules ruleMask) {
	switch m {
	case SyncPropagate:
		return "propagate", propagateRules
	case SyncMaintain:
		return "maintain", maintainRules
	}
	return "invalidate", invalidateRules
}

// OnUpdate implements catalog.UpdateListener. When a tracer is
// attached, a commit summary event (preset, invalidated count, entries
// maintained vs. fallen back with causes) is emitted AFTER the writer
// lock is released — trace calls under the writer lock are forbidden
// by the lockorder analyzer.
func (r *Recycler) OnUpdate(ev catalog.UpdateEvent) {
	tr := r.tracer.Load()
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	r.lockWriter()
	qname := ev.Table.QName()
	refs := make([]ColumnRef, 0, len(ev.Cols)+1)
	for _, c := range ev.Cols {
		refs = append(refs, ColumnRef{Table: qname, Column: c})
	}
	refs = append(refs, ColumnRef{Table: qname, Column: "*"})

	// Fix the pool up first (under the writer lock, with pending still
	// > 0 shielding the hit path), then publish the commit epoch.
	invalBefore := r.pool.Invalidated
	mode, rules := r.cfg.Sync.preset()
	sum := r.applyCommit(ev, refs, rules)
	invalidated := r.pool.Invalidated - invalBefore

	r.publishCommit(qname)
	r.mu.Unlock()
	if tr != nil {
		tr.Event("commit."+mode, time.Since(t0), commitDetail(qname, invalidated, sum))
	}
}

// commitDetail renders a commit event's detail string, including the
// walk's fallback causes in deterministic order.
func commitDetail(qname string, invalidated int64, sum commitSummary) string {
	var b strings.Builder
	fmt.Fprintf(&b, "table=%s invalidated=%d", qname, invalidated)
	if sum.maintained > 0 || sum.fallback > 0 {
		fmt.Fprintf(&b, " maintained=%d fallback=%d", sum.maintained, sum.fallback)
		causes := make([]string, 0, len(sum.causes))
		for c := range sum.causes {
			causes = append(causes, c)
		}
		sort.Strings(causes)
		for _, c := range causes {
			fmt.Fprintf(&b, " fallback.%s=%d", c, sum.causes[c])
		}
	}
	return b.String()
}

// OnDrop implements catalog.UpdateListener: dropping a table
// invalidates every dependent intermediate immediately, freeing
// resources without waiting for eviction.
func (r *Recycler) OnDrop(t *catalog.Table) {
	tr := r.tracer.Load()
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	r.lockWriter()
	qname := t.QName()
	invalBefore := r.pool.Invalidated
	for ref, m := range r.pool.byCol {
		if ref.Table != qname {
			continue
		}
		for _, e := range m {
			r.invalidate(e)
		}
	}
	invalidated := r.pool.Invalidated - invalBefore
	r.publishCommit(qname)
	r.mu.Unlock()
	if tr != nil {
		tr.Event("commit.drop", time.Since(t0), fmt.Sprintf("table=%s invalidated=%d", qname, invalidated))
	}
}

// publishCommit records a completed commit in the epoch guard: bump
// the epoch, stamp the table, settle the pending counter. Per the
// ordering contract above it must run only AFTER the pool fix-up, so
// both listeners share this one implementation.
func (r *Recycler) publishCommit(qname string) {
	r.stateMu.Lock()
	r.epoch++
	r.tableEpoch[qname] = r.epoch
	if r.pending[qname] > 0 {
		r.pending[qname]--
	}
	r.stateMu.Unlock()
}

// invalidate removes an entry because its source data changed. Caller
// holds the writer lock.
func (r *Recycler) invalidate(e *Entry) {
	if !e.valid.Load() {
		return
	}
	r.pool.Invalidated++
	r.evict(e)
}

// refreshResult swaps an entry's result in place, keeping its id (and
// therefore its signature and its dependants' signatures) stable while
// adjusting the pool's memory accounting. Caller holds the writer
// lock; the signature shard's write lock is taken around the swap so
// hit-path readers (who copy Result under the shard read lock) never
// observe a torn value.
func (r *Recycler) refreshResult(e *Entry, v mal.Value) {
	r.pool.totalBytes -= e.Bytes
	v.Prov = e.ID
	sh := r.pool.shard(e.Sig)
	sh.mu.Lock()
	e.Result = v
	e.Bytes = v.Bytes()
	e.Tuples = v.Tuples()
	sh.mu.Unlock()
	r.pool.totalBytes += e.Bytes
}
