// Fixture package for epochguard, typechecked as
// "repro/internal/recycler". It mirrors the pool accessor / guard
// predicate / reuse sink surfaces and exercises the PR 1
// commit-vs-invalidation shapes.
package recycler

// Entry mirrors a pool entry with epoch-stamped content.
type Entry struct {
	ID     uint64
	Sig    string
	Epoch  uint64
	Result int
}

// Hit mirrors the served-hit result shape.
type Hit struct {
	Hit bool
	Val int
}

// Pool mirrors the accessor surface (EpochSources).
type Pool struct {
	bySig map[string]*Entry
	byCol map[string][]*Entry
}

// LookupHit is an epoch source.
func (p *Pool) LookupHit(sig string) (*Entry, bool) {
	e, ok := p.bySig[sig]
	return e, ok
}

// SelectSupersets is an epoch source.
func (p *Pool) SelectSupersets(col string) []*Entry {
	return p.byCol[col]
}

// Add is the admission sink.
func (p *Pool) Add(e *Entry) {
	p.bySig[e.Sig] = e
}

// Recycler mirrors the guard predicates and the reuse sink.
type Recycler struct {
	pool  *Pool
	epoch map[string]uint64
}

// usable is a guard predicate (EpochSanitizers).
func (r *Recycler) usable(e *Entry, qEpoch uint64) bool {
	return e.Epoch <= qEpoch
}

// staleForQuery is a guard predicate.
func (r *Recycler) staleForQuery(e *Entry, qEpoch uint64) bool {
	return e.Epoch > qEpoch
}

// depsFresh is a guard predicate.
func (r *Recycler) depsFresh(e *Entry) bool {
	return r.epoch[e.Sig] == e.Epoch
}

// epochView mirrors the guard hoisted out of a candidate scan: one
// evaluation per query, consulted per entry without further locking.
type epochView struct{ stale []string }

// epochViewFor evaluates the guard once. Building a view consults
// nothing — only view.usable(e) does.
func (r *Recycler) epochViewFor(qEpoch uint64) epochView {
	var v epochView
	for sig, ep := range r.epoch {
		if ep > qEpoch {
			v.stale = append(v.stale, sig)
		}
	}
	return v
}

// usable is a guard predicate (EpochSanitizers).
func (v epochView) usable(e *Entry) bool {
	for _, s := range v.stale {
		if s == e.Sig {
			return false
		}
	}
	return true
}

// noteReuse is the reuse-accounting sink.
func (r *Recycler) noteReuse(e *Entry) {}

// badServe accounts a reuse without consulting the guard: a query
// straddling a commit is served the wrong side of it.
func (r *Recycler) badServe(sig string, qEpoch uint64) int {
	e, ok := r.pool.LookupHit(sig)
	if !ok {
		return 0
	}
	r.noteReuse(e) // want "noteReuse serves pool entry \"e\" without consulting the update-epoch guard"
	return e.Result
}

// badReturn serves entry content without the guard.
func (r *Recycler) badReturn(sig string) Hit {
	e, _ := r.pool.LookupHit(sig)
	return Hit{Hit: true, Val: e.Result} // want "returns e.Result without consulting the update-epoch guard"
}

// goodServe consults usable before serving.
func (r *Recycler) goodServe(sig string, qEpoch uint64) int {
	e, ok := r.pool.LookupHit(sig)
	if !ok || !r.usable(e, qEpoch) {
		return 0
	}
	r.noteReuse(e)
	return e.Result
}

// badSubsume accounts candidate reuse without the per-entry guard.
func (r *Recycler) badSubsume(col string, qEpoch uint64) {
	for _, e := range r.pool.SelectSupersets(col) {
		r.noteReuse(e) // want "serves pool entry \"e\" without consulting"
	}
}

// goodSubsume filters stale candidates first.
func (r *Recycler) goodSubsume(col string, qEpoch uint64) {
	for _, e := range r.pool.SelectSupersets(col) {
		if r.staleForQuery(e, qEpoch) {
			continue
		}
		r.noteReuse(e)
	}
}

// goodHoisted evaluates the guard once, outside the candidate loop,
// and judges every candidate against the view.
func (r *Recycler) goodHoisted(col string, qEpoch uint64) {
	view := r.epochViewFor(qEpoch)
	for _, e := range r.pool.SelectSupersets(col) {
		if !view.usable(e) {
			continue
		}
		r.noteReuse(e)
	}
}

// badHoisted builds the view but never consults it per candidate:
// having evaluated the guard says nothing about this entry's tables.
func (r *Recycler) badHoisted(col string, qEpoch uint64) {
	view := r.epochViewFor(qEpoch)
	_ = view
	for _, e := range r.pool.SelectSupersets(col) {
		r.noteReuse(e) // want "serves pool entry \"e\" without consulting"
	}
}

// badAdmit admits an entry with no freshness re-validation.
func (r *Recycler) badAdmit(e *Entry) {
	r.pool.Add(e) // want "\(\*Pool\).Add without a preceding freshness check"
}

// goodAdmit re-validates dependencies before admission.
func (r *Recycler) goodAdmit(e *Entry) {
	if !r.depsFresh(e) {
		return
	}
	r.pool.Add(e)
}

// exitLocked is declared writer-context: admissions here run with
// invalidation excluded by the writer lock.
func (r *Recycler) exitLocked(e *Entry) {
	r.pool.Add(e)
}
