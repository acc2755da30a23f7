package recycler

import (
	"time"

	"repro/internal/catalog"
	"repro/internal/mal"
	"repro/internal/plan"
)

// This file implements the pool image: what a gracefully draining
// server writes so that its restart starts warm. The paper's pool
// lives in memory only (§4.3 evicts), and so does this one while it
// serves: eviction destroys, a miss recomputes. The image has one job,
// drain → boot, and nothing on the query path consults it.
//
// SpillAll writes every entry current with the catalog as one record,
// in entry-id order. Ids grow with admission and an entry's producers
// are pooled when it is admitted, so the order is topological: the
// producers of a record's BAT operands are records earlier in the
// image. A record names each BAT operand by its producer's canonical
// signature (plan.CanonKey over the producer's own canonical operands,
// recursively), derived at drain from the entry's op and argument
// snapshot, because the run-time key's entry ids die with the process.
//
// Validity is keyed on catalog table versions: a record stores, for
// every table the intermediate reads, the version the entry was
// computed at (its stamp), and only entries current with the catalog
// are written. Prewarm streams the image once;
// the tier decodes each record outside the writer lock, and the record
// is admitted under it when its producers were admitted before it,
// every dependency table still has exactly the recorded version, and
// it fits the pool's limits. A stale record, or one of a table dropped
// and recreated since, never loads; the next drain replaces the image.
//
// Prewarmed entries are exact-match lines only: their subsumption
// metadata and argument snapshots are not rehydrated, so they serve
// repeat-template hits (and a commit to or drop of a table they read
// invalidates them through their stamps) but do not join subsumption
// searches or delta propagation. They keep the canonical operands they
// were loaded under, so the next drain writes them again.

// SpillArg describes one operand of an imaged instruction: either a
// scalar (its literal matching key) or a BAT (the canonical signature
// of the pool entry that produced it). It is exactly the canonical
// operand form of the shared signature type — the image persists
// plan.Signature derivations, not a parallel identity.
type SpillArg = plan.CanonArg

// SpillDep pins a record to the catalog state its content was computed
// from: one table it reads and that table's catalog.Stamp.
type SpillDep struct {
	Table string // schema-qualified
	// Created identifies the dependency table itself (its creation
	// commit sequence): a dropped-and-recreated table under the same
	// name restarts its version counter, and the creation stamp keeps
	// records of the old table from aliasing the new one.
	Created uint64
	// Version is the dependency table's committed-update counter the
	// content was computed at; any later commit makes the record stale.
	Version int64
}

// SpillRecord is one pooled intermediate in the pool image,
// self-contained enough to be serialised, validated and re-admitted by
// a later process.
type SpillRecord struct {
	OpName string
	Args   []SpillArg
	Deps   []SpillDep
	Cost   time.Duration
	Result mal.Value
}

// SpillTier stores the pool image (internal/store). Both methods
// perform I/O; the recycler calls them with none of its locks held.
type SpillTier interface {
	// Save replaces the image with recs, in order.
	Save(recs []*SpillRecord) error
	// Load decodes the image's records one at a time, in the order
	// Save wrote them, handing each to admit. It stops at the first
	// record that does not decode or verify, so a torn or damaged
	// image yields a prefix of its records. A missing image is empty.
	Load(admit func(*SpillRecord)) error
}

// recordStamps converts a record's dependencies to version stamps.
func recordStamps(deps []SpillDep) []tableStamp {
	out := make([]tableStamp, len(deps))
	for i, d := range deps {
		out[i] = tableStamp{table: d.Table, Stamp: catalog.Stamp{Created: d.Created, Version: d.Version}}
	}
	return out
}

// SpillAll writes every pool entry current with the catalog to the
// tier as the new pool image, replacing the previous one. A gracefully
// draining server calls it before exit so its restart can pre-warm.
// An entry with a commit to a dependency table visible but not walked
// yet is left out: its record would be stale on arrival. The pool
// itself is left intact. Returns the number of records written.
func (r *Recycler) SpillAll() (int, error) {
	tier := r.cfg.Spill
	if tier == nil {
		return 0, nil
	}
	r.lockWriter()
	recs := r.imageLocked()
	r.mu.Unlock()
	if err := tier.Save(recs); err != nil {
		return 0, err
	}
	r.spilled.Add(int64(len(recs)))
	return len(recs), nil
}

// imageLocked captures the image's records in entry-id order, deriving
// each entry's canonical operands through its producers' canonical
// signatures, which the walk has derived already. An entry whose
// producer was left out is left out too. Caller holds the writer lock.
func (r *Recycler) imageLocked() []*SpillRecord {
	var recs []*SpillRecord
	canon := make(map[uint64]string)
	resolve := func(id uint64) (string, bool) {
		c, ok := canon[id]
		return c, ok
	}
	for _, e := range r.pool.All() {
		if !e.valid.Load() || !current(e.stamps, catalogPins{r.cat}) {
			continue
		}
		args := e.SpillArgs
		if args == nil {
			var ok bool
			if _, args, ok = (plan.Signature{Op: e.OpName, Args: e.Args}).Canonical(resolve); !ok {
				continue
			}
		}
		canon[e.ID] = plan.CanonKey(e.OpName, args)
		deps := make([]SpillDep, len(e.stamps))
		for i, s := range e.stamps {
			deps[i] = SpillDep{Table: s.table, Created: s.Created, Version: s.Version}
		}
		recs = append(recs, &SpillRecord{
			OpName: e.OpName,
			Args:   args,
			Deps:   deps,
			Cost:   e.Cost,
			Result: e.Result.Materialised(), // a bind's rows, at the drain's version
		})
	}
	return recs
}

// Prewarm loads the pool image into the pool in one pass over it.
// Servers call it once at startup, before accepting traffic. Capacity
// limits are respected: a record that does not fit is skipped, never
// made room for. Returns the number of entries admitted; the error is
// the tier's (a damaged image is not an error, it loads its prefix).
func (r *Recycler) Prewarm() (int, error) {
	tier := r.cfg.Spill
	if tier == nil {
		return 0, nil
	}
	ids := make(map[string]uint64) // canonical signature -> pool entry id
	n := 0
	err := tier.Load(func(rec *SpillRecord) {
		r.lockWriter()
		defer r.mu.Unlock()
		if r.admitRecordLocked(rec, ids) {
			n++
		}
	})
	return n, err
}

// admitRecordLocked admits one image record at a fresh run-time key,
// rebuilt from the entry ids ids maps its producers' canonical
// signatures to, and records the id its own canonical signature now
// resolves to (the admitted entry, or an equal one already pooled).
// Bytes are re-derived from the decoded result: the original entry may
// have been a cheap view over shared storage, but the decoded copy is
// fully materialised and must be accounted as such. Caller holds the
// writer lock.
func (r *Recycler) admitRecordLocked(rec *SpillRecord, ids map[string]uint64) bool {
	stamps := recordStamps(rec.Deps)
	if !current(stamps, catalogPins{r.cat}) {
		r.staleDropped.Add(1)
		return false
	}
	if !current(stamps, appliedPins{r}) {
		return false // a commit to a dependency table is still being applied
	}
	sig, dependsOn, ok := plan.RuntimeKey(rec.OpName, rec.Args, func(canon string) (uint64, bool) {
		id, found := ids[canon]
		return id, found
	})
	if !ok {
		return false // a producer was not admitted
	}
	canon := plan.CanonKey(rec.OpName, rec.Args)
	if e := r.pool.Lookup(sig, appliedPins{r}); e != nil {
		ids[canon] = e.ID
		return false
	}
	bytes := rec.Result.Bytes()
	if r.cfg.MaxBytes > 0 && r.pool.Bytes()+bytes > r.cfg.MaxBytes {
		return false
	}
	if r.cfg.MaxEntries > 0 && r.pool.Len()+1 > r.cfg.MaxEntries {
		return false
	}
	tick := r.pool.Tick()
	e := &Entry{
		Sig:       sig,
		SpillArgs: rec.Args,
		OpName:    rec.OpName,
		Result:    rec.Result,
		Bytes:     bytes,
		Tuples:    rec.Result.Tuples(),
		Cost:      rec.Cost,
		AdmitTick: tick,
		DependsOn: dependsOn,
		stamps:    stamps,
	}
	e.LastUseTick.Store(tick)
	r.pool.Add(e)
	ids[canon] = e.ID
	r.prewarmed.Add(1)
	return true
}
