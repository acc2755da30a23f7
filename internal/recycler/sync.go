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
// synchronisation with updates (paper §6): each commit is delivered
// here after its mutation became visible, and the fix-up — one lineage
// walk over the table's entry list and a rule table — is delta.go.
// Between the two, queries that pinned the new version find no entry
// current for them and may not admit (the list's applied version is
// still the previous one); queries that pinned the old one keep
// hitting every entry until the walk changes its result. After the
// walk, OnUpdate stores the new applied version once: the entries the
// walk left alone are then current at both versions, the ones it
// changed at the new one only.

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

// OnUpdate implements catalog.UpdateListener. A drop invalidates every
// entry over the table at once, freeing its resources without waiting
// for eviction, and discards the table's list. When a tracer is
// attached, a commit summary event (preset or "drop", invalidated
// count, entries maintained vs. fallen back with causes) is emitted
// AFTER the writer lock is released — trace calls under the writer
// lock are forbidden by the lockorder analyzer.
func (r *Recycler) OnUpdate(c catalog.Commit) {
	tr := r.tracer.Load()
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	r.lockWriter()
	qname := c.Table.QName()
	invalBefore := r.pool.Invalidated
	mode, rules := r.cfg.Sync.preset()
	var sum commitSummary
	l := r.pool.tables[qname]
	switch {
	case c.Kind == catalog.CommitDrop:
		mode = "drop"
		if l != nil {
			r.applyCommit(l, c, invalidateRules)
			delete(r.pool.tables, qname)
		}
	// A list made after the commit published has applied it already;
	// one of an earlier table of the same name waits for its drop.
	case l != nil && l.created == c.Stamp.Created && l.applied.Load() < c.Stamp.Version:
		sum = r.applyCommit(l, c, rules)
		l.applied.Store(c.Stamp.Version)
	}
	invalidated := r.pool.Invalidated - invalBefore
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
		fmt.Fprintf(&b, " maintained=%d reached=%d fallback=%d", sum.maintained, sum.reached, sum.fallback)
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

// invalidate removes an entry because its source data changed. Caller
// holds the writer lock.
func (r *Recycler) invalidate(e *Entry) {
	if !e.valid.Load() {
		return
	}
	r.pool.Invalidated++
	r.evict(e)
}

// refreshResult swaps an entry's result in place and moves its since
// for table l (nil: none) to version since, keeping its id (and
// therefore its signature and its dependants' signatures) stable while
// adjusting the pool's memory accounting. The new result was computed
// from the other tables' results as the pool holds them, at their
// applied versions, so its since for each of those moves there: a join
// over two tables holds what it now holds only from then on. Caller
// holds the writer lock; the signature shard's write lock is taken
// around the swap so hit-path readers (who compare the stamps and copy
// Result under the shard read lock) never pair a result with a version
// it does not hold at.
func (r *Recycler) refreshResult(e *Entry, v mal.Value, l *tableList, since int64) {
	r.pool.totalBytes -= e.Bytes
	v.Prov = e.ID
	sh := r.pool.shard(e.Sig)
	sh.mu.Lock()
	e.Result = v
	e.Bytes = v.Bytes()
	e.Tuples = v.Tuples()
	for i, s := range e.stamps {
		if s.l == l {
			e.stamps[i].since = since
		} else {
			e.stamps[i].since = s.l.applied.Load()
		}
	}
	sh.mu.Unlock()
	r.pool.totalBytes += e.Bytes
}
