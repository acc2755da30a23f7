package recycler

import (
	"sort"
	"strings"
	"time"

	"repro/internal/algebra"
	"repro/internal/bat"
	"repro/internal/mal"
)

// This file implements instruction subsumption (paper §5): reusing a
// cached intermediate whose result set is a superset of — or a set of
// intermediates whose union covers — the result the planned
// instruction would compute.
//
// The candidate searches read the pool's subsumption indexes and
// therefore run under the writer lock. They cost O(log n) plus the
// candidates they report in the number of pooled selects and semijoins
// (see selindex.go); the index accessors hand out only candidates
// current for the query's pins. Combined subsumption's operator
// execution (the piecewise selects and the merge) does NOT run under
// the lock: the chosen candidates are snapshotted under it, the algebra
// runs over the immutable snapshots with no lock held, and the result
// is only admitted after re-acquiring the writer lock and re-validating
// that every piece still holds the result it was snapshotted with — a
// concurrent invalidation or refresh between snapshot and admission
// aborts the combined hit instead of resurrecting stale pieces.

// pieceSnap is a consistent copy of one combined-subsumption candidate
// taken under the writer lock: the entry pointer for re-validation
// plus the matching metadata and result the unlocked search and
// execution phases work from. The inclusiveness flags travel with the
// bounds: a union of ranges that EXCLUDE a shared boundary point has a
// hole there, and treating it as a solid interval serves wrong covers.
type pieceSnap struct {
	e      *Entry
	r      algebra.Range
	tuples int
	result mal.Value
}

// smaller orders subsumption sources by the cost model — the operand
// size — with the older entry winning a tie, so the choice does not
// depend on how an index happens to be laid out.
func smaller(e, best *Entry) bool {
	return best == nil || e.Tuples < best.Tuples || (e.Tuples == best.Tuples && e.ID < best.ID)
}

// smallestSuperset is the singleton search (§5.1): the smallest range
// select over the column, current for q, whose range contains the
// target. Caller holds the writer lock.
func (r *Recycler) smallestSuperset(q Pins, colKey string, t algebra.Range) *Entry {
	var best *Entry
	for _, e := range r.pool.SelectSupersets(colKey, t, q) {
		if smaller(e, best) {
			best = e
		}
	}
	return best
}

// maxCombined caps the candidate set size fed to Algorithm 2.
const maxCombined = 16

// overlapSnaps builds R for Algorithm 2: snapshots of the range selects
// over the column, current for q, that overlap the target, oldest
// first, capped at maxCombined for safety. Caller holds the writer
// lock.
func (r *Recycler) overlapSnaps(q Pins, colKey string, t algebra.Range) []pieceSnap {
	cands := r.pool.SelectOverlaps(colKey, t, q)
	sort.Slice(cands, func(i, j int) bool { return cands[i].ID < cands[j].ID })
	var R []pieceSnap
	for _, e := range cands {
		R = append(R, pieceSnap{e: e, r: e.Sel, tuples: e.Tuples, result: e.Result})
		if len(R) >= maxCombined {
			break
		}
	}
	return R
}

// subsumeSelect implements select subsumption: first the singleton
// form (one superset intermediate, §5.1), then the combined form over
// a set of overlapping intermediates (§5.2, Algorithm 2).
func (r *Recycler) subsumeSelect(ctx *mal.Ctx, pc int, in *mal.Instr, args []mal.Value) mal.EntryResult {
	p, _ := mal.FilterPred("algebra.select", args)
	colKey := args[0].Key()

	r.lockWriter()
	if best := r.smallestSuperset(ctx, colKey, p.Range); best != nil {
		r.noteReuse(ctx, in, best)
		newArgs := append([]mal.Value(nil), args...)
		newArgs[0] = best.Result
		id := best.ID
		r.mu.Unlock()
		ctx.Stats.Subsumed++
		return mal.EntryResult{Rewrite: &mal.Rewrite{Args: newArgs, SubsetOf: id}, Reason: "rewrite:subsume-select"}
	}

	if !r.cfg.CombinedSubsumption || p.Range.Lo == nil || p.Range.Hi == nil {
		r.mu.Unlock()
		return mal.EntryResult{}
	}

	// The writer lock is released after the copy; search and piecewise
	// execution run over the snapshots without it.
	R := r.overlapSnaps(ctx, colKey, p.Range)
	r.mu.Unlock()
	return r.combinedSelect(ctx, pc, in, args, p, R)
}

// combinedSelect runs Algorithm 2 over the snapshotted candidates:
// build combinations of overlapping cached selects, prune by cost
// against the best solution so far (seeded with the regular execution
// cost = operand size), and if a covering combination cheaper than the
// base scan exists, execute the select piecewise over the pieces and
// merge with oid deduplication — all without any pool lock. The
// writer lock is only re-acquired to validate the pieces and admit
// the merged result; if any piece was invalidated or refreshed in the
// meantime the combined hit is abandoned (the interpreter then simply
// executes the instruction).
func (r *Recycler) combinedSelect(ctx *mal.Ctx, pc int, in *mal.Instr, args []mal.Value, p algebra.Pred, R []pieceSnap) mal.EntryResult {
	searchStart := time.Now()
	if len(R) < 2 {
		overhead := time.Since(searchStart)
		ctx.Stats.SubsumeOverhead += overhead
		return mal.EntryResult{}
	}

	baseCost := args[0].Tuples() // C(A): size of the regular operand
	type partial struct {
		mask uint32
		r    algebra.Range // union interval (single interval by construction)
		cost int
	}
	covers := func(u partial) bool { return u.r.Contains(p.Range) }

	var sol *partial
	solCost := baseCost
	// seen dedupes combinations by their member set: Algorithm 2
	// builds subsets, so a mask reached through different insertion
	// orders is the same partial solution and must be explored once.
	seen := make(map[uint32]bool, 64)
	// budget bounds the dynamic-programming frontier; the paper's
	// micro-benchmarks stay at k < 10 entries, and the cost-based
	// pruning usually cuts far earlier, but adversarial pools of many
	// overlapping cheap selects must not stall the query.
	budget := 4096
	p1 := make([]partial, 0, len(R))
	for i, s := range R {
		u := partial{mask: 1 << uint(i), r: s.r, cost: s.tuples}
		seen[u.mask] = true
		if u.cost < solCost && covers(u) {
			// Degenerate: a single candidate covers (would have been
			// caught by singleton subsumption with exact flags; keep
			// for robustness).
			q := u
			sol, solCost = &q, u.cost
			continue
		}
		p1 = append(p1, u)
	}
	for n := 1; n < len(R) && len(p1) > 0 && budget > 0; n++ {
		var p2 []partial
		for _, s := range p1 {
			for i, c := range R {
				bit := uint32(1) << uint(i)
				if s.mask&bit != 0 || seen[s.mask|bit] {
					continue
				}
				if !s.r.Mergeable(c.r) {
					continue
				}
				seen[s.mask|bit] = true
				if budget--; budget <= 0 {
					break
				}
				u := partial{mask: s.mask | bit, r: s.r.Union(c.r), cost: s.cost + c.tuples}
				if u.cost >= solCost {
					continue // cut unpromising partial solutions
				}
				if covers(u) {
					q := u
					sol, solCost = &q, u.cost
				} else {
					p2 = append(p2, u)
				}
			}
		}
		p1 = p2
	}
	overhead := time.Since(searchStart)
	ctx.Stats.SubsumeOverhead += overhead
	if sol == nil {
		return mal.EntryResult{}
	}

	// Execute piecewise over the chosen cover and merge, with no lock
	// held: the snapshots' BATs are immutable.
	execStart := time.Now()
	var parts []*bat.BAT
	for i, s := range R {
		if sol.mask&(1<<uint(i)) == 0 {
			continue
		}
		parts = append(parts, algebra.Filter(s.result.Bat, p))
	}
	merged := algebra.MergeDedupByHead(parts)
	elapsed := time.Since(execStart)

	if r.testBeforeRevalidate != nil {
		r.testBeforeRevalidate()
	}

	// The admission's key needs no lock.
	key, admittable := poolKey(in, args)

	// Re-validate under the writer lock: every piece must still be
	// valid (not invalidated/evicted) and unchanged (not refreshed by
	// delta propagation). The pieces were current for the query when
	// snapshotted, so the merged result is the query's answer; a failure
	// means it may encode state the commit walk already erased from the
	// pool — admitting it would resurrect exactly what invalidation
	// killed. exitLocked's version check decides admission.
	r.lockWriter()
	defer r.mu.Unlock()
	for i, s := range R {
		if sol.mask&(1<<uint(i)) == 0 {
			continue
		}
		if !s.e.valid.Load() || s.e.Result.Bat != s.result.Bat {
			return mal.EntryResult{}
		}
	}
	for i, s := range R {
		if sol.mask&(1<<uint(i)) == 0 {
			continue
		}
		r.noteReuse(ctx, in, s.e)
	}
	ctx.Stats.CombinedExec += elapsed
	ctx.Stats.Hits++
	ctx.Stats.Combined++
	if in.Module != "sql" {
		ctx.Stats.HitsNonBind++
	}

	val := mal.BatV(merged)
	// Admit the combined result under the original signature so later
	// instances match exactly.
	if admittable {
		val.Prov, _ = r.exitLocked(ctx, pc, in, args, val, elapsed, nil, key)
	}
	return mal.EntryResult{Hit: true, Val: val, Reason: "hit:combined"}
}

// subsumeLike implements the LIKE special case of select subsumption:
// a cached pure-infix pattern %lit% subsumes the target pattern when
// lit occurs inside one of the target's literal runs (every string the
// target accepts then contains lit).
func (r *Recycler) subsumeLike(ctx *mal.Ctx, in *mal.Instr, args []mal.Value) mal.EntryResult {
	colKey := args[0].Key()
	target := args[1].S
	r.lockWriter()
	var best *Entry
	for _, e := range r.pool.LikeCandidates(colKey, ctx) {
		lit, pure := algebra.LikeLiteral(e.LikePat)
		if !pure || lit == "" {
			continue
		}
		if !literalRunContains(target, lit) {
			continue
		}
		if smaller(e, best) {
			best = e
		}
	}
	if best == nil {
		r.mu.Unlock()
		return mal.EntryResult{}
	}
	r.noteReuse(ctx, in, best)
	newArgs := append([]mal.Value(nil), args...)
	newArgs[0] = best.Result
	id := best.ID
	r.mu.Unlock()
	ctx.Stats.Subsumed++
	return mal.EntryResult{Rewrite: &mal.Rewrite{Args: newArgs, SubsetOf: id}, Reason: "rewrite:subsume-like"}
}

// literalRunContains reports whether lit occurs inside a single
// literal (wildcard-free) run of the pattern.
func literalRunContains(pattern, lit string) bool {
	for _, run := range strings.FieldsFunc(pattern, func(r rune) bool { return r == '%' || r == '_' }) {
		if strings.Contains(run, lit) {
			return true
		}
	}
	return false
}

// subsumeSemijoin implements semijoin subsumption (§5.1): semijoin(X, W)
// can reuse a cached semijoin(X, V) when W ⊂ V.
func (r *Recycler) subsumeSemijoin(ctx *mal.Ctx, in *mal.Instr, args []mal.Value) mal.EntryResult {
	px, pw := args[0].Prov, args[1].Prov
	if px == 0 || pw == 0 {
		return mal.EntryResult{}
	}
	r.lockWriter()
	best := r.smallestSemijoin(ctx, px, pw)
	if best == nil {
		r.mu.Unlock()
		return mal.EntryResult{}
	}
	r.noteReuse(ctx, in, best)
	newArgs := append([]mal.Value(nil), args...)
	newArgs[0] = best.Result
	id := best.ID
	r.mu.Unlock()
	ctx.Stats.Subsumed++
	return mal.EntryResult{Rewrite: &mal.Rewrite{Args: newArgs, SubsetOf: id}, Reason: "rewrite:subsume-semijoin"}
}

// smallestSemijoin finds the smallest semijoin(X, V) with W ⊂ V current
// for q.
// Rather than testing every cached semijoin over X, it enumerates the
// known supersets V of W — few — and looks each (X, V) pair up: the
// entries W was derived from by subsumption (the recorded SubsetOf
// edges), and, when W is a range select, the selects over the same
// column operand whose range contains W's. Caller holds the writer
// lock.
func (r *Recycler) smallestSemijoin(q Pins, px, pw uint64) *Entry {
	var best *Entry
	consider := func(v uint64) {
		if v == pw {
			return // exact match handled earlier
		}
		if e := r.pool.SemijoinOver(px, v, q); e != nil && smaller(e, best) {
			best = e
		}
	}
	for v := pw; v != 0; {
		consider(v)
		e := r.pool.Get(v)
		if e == nil {
			break
		}
		v = e.SubsetOf
	}
	if w := r.pool.Get(pw); w != nil && w.IsRangeSelect {
		for _, e := range r.pool.SelectSupersets(w.SelColKey, w.Sel, q) {
			consider(e.ID)
		}
	}
	return best
}
