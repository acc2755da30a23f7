// Fixture package for lockorder, typechecked as
// "repro/internal/recycler" so the invariant tables apply. It mirrors
// the real recycler's lock fields and exercises both flagged and
// allowed patterns.
package recycler

import (
	"os"
	"sync"
	"time"

	"repro/internal/trace"
)

// SpillRecord mirrors the real pool image record shape.
type SpillRecord struct{ Sig string }

// SpillTier mirrors the real pool image interface: both methods
// perform I/O.
type SpillTier interface {
	Save(recs []*SpillRecord) error
	Load(admit func(*SpillRecord)) error
}

type sigShard struct {
	mu    sync.RWMutex
	bySig map[string]*Entry
}

type admission struct {
	mu      sync.Mutex
	granted int64
}

// Entry mirrors a pool entry.
type Entry struct {
	ID     uint64
	Sig    string
	Result int
}

// Pool mirrors the real pool: entries guarded by the owning
// Recycler's writer lock, the signature index by shard locks.
type Pool struct {
	shards  [4]sigShard
	entries map[uint64]*Entry
}

// Add mirrors the real contract: caller holds the writer lock.
func (p *Pool) Add(e *Entry) {
	p.entries[e.ID] = e
	sh := &p.shards[0]
	sh.mu.Lock()
	sh.bySig[e.Sig] = e
	sh.mu.Unlock()
}

// Len mirrors the real contract: caller holds the writer lock.
func (p *Pool) Len() int { return len(p.entries) }

// Recycler mirrors the real lock fields.
type Recycler struct {
	mu       sync.Mutex
	activeMu sync.RWMutex
	pool     *Pool
	adm      *admission
	tier     SpillTier
	active   map[uint64]struct{}
}

// lockWriter mirrors the real helper: acquires mu and returns with it
// held (the TryLock fast path must not be flagged as a re-acquire).
func (r *Recycler) lockWriter() {
	if r.mu.TryLock() {
		return
	}
	r.mu.Lock()
}

// goodOrder acquires in increasing rank: mu then activeMu.
func (r *Recycler) goodOrder() {
	r.lockWriter()
	defer r.mu.Unlock()
	r.activeMu.Lock()
	delete(r.active, 1)
	r.activeMu.Unlock()
	r.pool.Add(&Entry{ID: 1})
}

// badOrder acquires mu while holding activeMu: rank 10 under rank 20.
func (r *Recycler) badOrder() {
	r.activeMu.Lock()
	defer r.activeMu.Unlock()
	r.mu.Lock() // want "acquires recycler.Recycler.mu \(rank 10\) while holding recycler.Recycler.activeMu \(rank 20\)"
	r.mu.Unlock()
}

// badReentry re-acquires the already-held writer lock.
func (r *Recycler) badReentry() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.mu.Lock() // want "re-acquires recycler.Recycler.mu, already held"
}

// badTransitive calls a helper that acquires activeMu while a
// higher-ranked shard lock is held.
func (r *Recycler) badTransitive() {
	sh := &r.pool.shards[0]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	r.beginQuery(1) // want "calls recycler.\(\*Recycler\).beginQuery, which acquires recycler.Recycler.activeMu \(rank 20\), while holding recycler.sigShard.mu \(rank 30\)"
}

func (r *Recycler) beginQuery(q uint64) {
	r.activeMu.Lock()
	r.active[q] = struct{}{}
	r.activeMu.Unlock()
}

// badIOUnderWriter performs file I/O under the writer lock.
func (r *Recycler) badIOUnderWriter() {
	r.lockWriter()
	defer r.mu.Unlock()
	os.Create("/tmp/spill") // want "performs I/O while recycler.Recycler.mu is held"
}

// badTierUnderWriter writes the pool image under the writer lock.
func (r *Recycler) badTierUnderWriter() {
	r.lockWriter()
	defer r.mu.Unlock()
	r.tier.Save(nil) // want "performs I/O while recycler.Recycler.mu is held"
}

// goodTierOutsideLock is the Prewarm shape: the tier decodes each
// record with no lock held, and the callback locks to admit it.
func (r *Recycler) goodTierOutsideLock() {
	r.tier.Load(func(rec *SpillRecord) {
		r.lockWriter()
		defer r.mu.Unlock()
		r.pool.Add(&Entry{Sig: rec.Sig})
	})
}

// badUnlockedPoolCall calls a writer-lock pool method with no lock.
func (r *Recycler) badUnlockedPoolCall() int {
	return r.pool.Len() // want "call to recycler.\(\*Pool\).Len requires the recycler writer lock"
}

// exitLocked is declared writer-context in the invariant tables, so
// its unlocked pool calls are fine.
func (r *Recycler) exitLocked(e *Entry) {
	r.pool.Add(e)
}

// badTraceUnderWriter records a recycler decision while the writer
// lock is held: forbidden, the Recorder takes its own mutex for
// events and must never nest inside rank-10.
func (r *Recycler) badTraceUnderWriter(rec *trace.Recorder) {
	r.lockWriter()
	defer r.mu.Unlock()
	rec.SetRecycle(0, "hit:exact") // want "trace.\(\*Recorder\).SetRecycle called while recycler.Recycler.mu is held"
}

// badTracerEventUnderWriter emits an engine-wide tracer event under
// the writer lock.
func (r *Recycler) badTracerEventUnderWriter(tr *trace.Tracer) {
	r.lockWriter()
	defer r.mu.Unlock()
	tr.Event("commit.invalidate", "q1") // want "trace.\(\*Tracer\).Event called while recycler.Recycler.mu is held"
}

// goodTraceAfterUnlock is the sanctioned shape: capture under the
// lock, record after releasing it.
func (r *Recycler) goodTraceAfterUnlock(rec *trace.Recorder) {
	r.lockWriter()
	n := r.pool.Len()
	r.mu.Unlock()
	rec.SetAdmission(n, "admit:granted")
}

// goodHistogramUnderWriter observes a wait-free histogram under the
// lock: Histogram.Observe is deliberately not in TraceRecorderFuncs.
func (r *Recycler) goodHistogramUnderWriter(h *trace.Histogram, wait time.Duration) {
	r.lockWriter()
	defer r.mu.Unlock()
	h.Observe(wait)
}

// badTransitiveTrace reaches a tracer through a helper while the
// writer lock is held.
func (r *Recycler) badTransitiveTrace(tr *trace.Tracer) {
	r.lockWriter()
	defer r.mu.Unlock()
	r.emitCommitEvent(tr) // want "calls recycler.\(\*Recycler\).emitCommitEvent, which reaches trace recorder trace.\(\*Tracer\).Event, while recycler.Recycler.mu is held"
}

func (r *Recycler) emitCommitEvent(tr *trace.Tracer) {
	tr.Event("commit.maintain", "q2")
}
