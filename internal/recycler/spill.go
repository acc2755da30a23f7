package recycler

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/mal"
)

// This file implements the pool image: what a gracefully draining
// server writes so that its restart starts warm. The paper's pool
// lives in memory only (§4.3 evicts), and so does this one while it
// serves: eviction destroys, a miss recomputes. The image has one job,
// drain → boot, and nothing on the query path consults it.
//
// The image keeps recipes, not results. A record is one pooled
// instruction instance as the paper identifies it (§3.2): its
// operation and its operands, a scalar operand as its value and a BAT
// operand as the index of the earlier record that produced it.
// SpillAll writes one record per valid entry, in entry-id order. Ids
// grow with admission and an entry's producers are pooled when it is
// admitted, so the order is topological: every producer is written
// before the records that read it.
//
// Prewarm runs the records as one query of its own. Each record's
// kernel runs over the catalog's current versions, and its result is
// admitted through exitLocked, the path every query's results take. A
// prewarmed entry is therefore an ordinary entry: a bind is a
// catalog.Ref, and the argument snapshot, delta class and subsumption
// metadata are all there. A recipe holds at any version, so an image
// written before a commit, or over another catalog, costs the boot
// some recomputation but can never pool a wrong result.

// SpillArg is one operand of an image record: a scalar (Value), or a
// BAT named by the index of the record that produced it (Producer,
// counted from 0 over the image's records).
type SpillArg struct {
	Bat      bool
	Producer int
	Value    mal.Value
}

// SpillRecord is one pooled instruction instance in the pool image:
// the recipe Prewarm recomputes the entry from.
type SpillRecord struct {
	OpName string
	Args   []SpillArg
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

// SpillAll writes the recipe of every valid pool entry to the tier as
// the new pool image, replacing the previous one. A gracefully
// draining server calls it before exit so its restart can pre-warm.
// The pool itself is left intact. Returns the number of records
// written.
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

// imageLocked captures the pool's recipes in entry-id order. An entry
// whose producer was left out is left out too. Caller holds the
// writer lock.
func (r *Recycler) imageLocked() []*SpillRecord {
	var recs []*SpillRecord
	index := make(map[uint64]int) // entry id -> its record's index
	for _, e := range r.pool.All() {
		if rec, ok := recipe(e, index); ok {
			index[e.ID] = len(recs)
			recs = append(recs, rec)
		}
	}
	return recs
}

// recipe renders e's argument snapshot as an image record, naming
// each BAT operand by its producer's record in index.
func recipe(e *Entry, index map[uint64]int) (*SpillRecord, bool) {
	if !e.valid.Load() {
		return nil, false
	}
	rec := &SpillRecord{OpName: e.OpName, Args: make([]SpillArg, len(e.Args))}
	for i, a := range e.Args {
		if !a.IsBat() {
			rec.Args[i] = SpillArg{Value: a}
			continue
		}
		p, ok := index[a.Prov]
		if !ok {
			return nil, false
		}
		rec.Args[i] = SpillArg{Bat: true, Producer: p}
	}
	return rec, true
}

// prewarmQuery is the query id the prewarm pass runs under. Engines
// number their queries up from 1, so it names no query of theirs.
const prewarmQuery = ^uint64(0)

// Prewarm recomputes the pool image into the pool in one pass over it.
// Servers call it once at startup, before accepting traffic. The pass
// is one query with a template of its own, each record its
// instruction: it pins every table at its current version, and the
// entries it admits stay pinned against eviction until it ends.
// Admission is exitLocked's, so the admission policy, the duplicate
// check and the pool's limits apply as they do to any query. Returns
// the number of entries admitted; the error is the tier's (a damaged
// image is not an error, it loads its prefix).
func (r *Recycler) Prewarm() (int, error) {
	tier := r.cfg.Spill
	if tier == nil {
		return 0, nil
	}
	ctx := &mal.Ctx{Cat: r.cat, QueryID: prewarmQuery, Template: mal.NewBuilder("prewarm").Freeze()}
	r.BeginQuery(ctx.QueryID, ctx.Template.ID)
	defer r.EndQuery(ctx.QueryID)
	var results []mal.Value // per record: its pooled result, or Prov 0
	n := 0
	err := tier.Load(func(rec *SpillRecord) {
		ret, admitted := r.recompute(ctx, len(results), rec, results)
		results = append(results, ret)
		if admitted {
			n++
			r.prewarmed.Add(1)
		}
	})
	return n, err
}

// recompute runs record pc's kernel over its operands, the earlier
// records' results, and offers the result to exitLocked as Exit does.
// It returns the result with its pool provenance, and whether a new
// entry was admitted. A record whose producer is not pooled, or whose
// kernel fails, yields nothing, and so do the records that read it.
func (r *Recycler) recompute(ctx *mal.Ctx, pc int, rec *SpillRecord, results []mal.Value) (mal.Value, bool) {
	args := make([]mal.Value, len(rec.Args))
	for i, a := range rec.Args {
		switch {
		case !a.Bat:
			args[i] = a.Value
		case a.Producer < 0 || a.Producer >= pc || results[a.Producer].Prov == 0:
			return mal.Value{}, false
		default:
			args[i] = results[a.Producer]
		}
	}
	module, op, _ := strings.Cut(rec.OpName, ".")
	in := &mal.Instr{Module: module, Op: op}
	start := time.Now()
	ret, err := eval(ctx, in, args)
	if err != nil {
		return mal.Value{}, false
	}
	elapsed := time.Since(start)
	key, matchable := poolKey(in, args)
	if !matchable {
		return mal.Value{}, false
	}
	r.lockWriter()
	prov, reason := r.exitLocked(ctx, pc, in, args, ret, elapsed, nil, key)
	r.mu.Unlock()
	ret.Prov = prov
	return ret, reason == "admit:granted"
}

// eval runs one kernel as mal.Run would, a panic becoming its error:
// an image's operands need not be what the kernel expects.
func eval(ctx *mal.Ctx, in *mal.Instr, args []mal.Value) (ret mal.Value, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%s: panic: %v", in.Name(), p)
		}
	}()
	return mal.Eval(ctx, in, args)
}
