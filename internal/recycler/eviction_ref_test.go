package recycler

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/bat"
	"repro/internal/catalog"
	"repro/internal/mal"
)

// This file keeps the eviction algorithm as it stood before the pool
// maintained its leaf frontier — a scan of every entry per round,
// sorted by id, then sorted again by recency — as the reference the
// incremental frontier is held to: driven through the same randomized
// history, both must evict the identical sequence of entries.

// --- reference implementation (pre-frontier cleanCache) --------------

func leavesRef(p *Pool, pinned func(*Entry) bool) []*Entry {
	var out []*Entry
	for _, e := range p.entries {
		if e.dependents > 0 {
			continue
		}
		if pinned != nil && pinned(e) {
			continue
		}
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func filterProtectedRef(leaves []*Entry, protect map[uint64]bool) []*Entry {
	if len(protect) == 0 {
		return leaves
	}
	out := leaves[:0]
	for _, e := range leaves {
		if !protect[e.ID] {
			out = append(out, e)
		}
	}
	return out
}

// cleanCacheRef is the old cleanCache; onVictim observes the sequence.
func cleanCacheRef(r *Recycler, needBytes int64, needEntries int, protectIDs []uint64, onVictim func(*Entry)) bool {
	protect := map[uint64]bool{}
	for _, id := range protectIDs {
		protect[id] = true
	}
	active := map[uint64]bool{}
	for _, q := range r.activeSnapshot(nil) {
		active[q] = true
	}
	pinnedByActive := func(e *Entry) bool { return active[e.pinnedQuery.Load()] }
	for needBytes > 0 || needEntries > 0 {
		leaves := filterProtectedRef(leavesRef(r.pool, pinnedByActive), protect)
		if len(leaves) == 0 {
			leaves = filterProtectedRef(leavesRef(r.pool, nil), protect)
			if len(leaves) == 0 {
				return false
			}
		}
		victims := pickVictimsRef(r, leaves, needBytes, needEntries)
		if len(victims) == 0 {
			return false
		}
		for _, v := range victims {
			needBytes -= v.Bytes
			needEntries--
			onVictim(v)
			r.evict(v)
		}
	}
	return true
}

func pickVictimsRef(r *Recycler, leaves []*Entry, needBytes int64, needEntries int) []*Entry {
	if needBytes > 0 {
		return pickVictimsMemRef(r, leaves, needBytes)
	}
	if needEntries <= 0 {
		return nil
	}
	now := r.pool.Now()
	worst := leaves[0]
	for _, e := range leaves[1:] {
		if lessRef(r, e, worst, now) {
			worst = e
		}
	}
	return []*Entry{worst}
}

func lessRef(r *Recycler, a, b *Entry, now int64) bool {
	switch r.cfg.Eviction {
	case EvictBP:
		return a.Benefit() < b.Benefit()
	case EvictHP:
		return a.HistoryBenefit(now) < b.HistoryBenefit(now)
	}
	return a.LastUseTick.Load() < b.LastUseTick.Load()
}

func pickVictimsMemRef(r *Recycler, leaves []*Entry, needBytes int64) []*Entry {
	var total int64
	for _, e := range leaves {
		total += e.Bytes
	}
	if total <= needBytes {
		return leaves
	}
	if r.cfg.Eviction == EvictLRU {
		s := append([]*Entry(nil), leaves...)
		sort.Slice(s, func(i, j int) bool { return s[i].LastUseTick.Load() < s[j].LastUseTick.Load() })
		var out []*Entry
		var freed int64
		for _, e := range s {
			if freed >= needBytes {
				break
			}
			out = append(out, e)
			freed += e.Bytes
		}
		return out
	}
	// BP/HP: the knapsack did not change, and run over the same leaves
	// in the same order it is the reference.
	return r.pickVictimsMem(leaves, needBytes)
}

// --- the differential driver ------------------------------------------

// nopTier is a SpillTier that stores nothing. The spill=true arms
// attach one: a pool with an image store must evict exactly as one
// without.
type nopTier struct{}

func (nopTier) Save([]*SpillRecord) error     { return nil }
func (nopTier) Load(func(*SpillRecord)) error { return nil }

// evictRig is one recycler under the differential driver. The driver
// plays exitLocked's capacity steps itself so that the only difference
// between the two rigs is which cleanCache runs.
type evictRig struct {
	r       *Recycler
	ref     bool
	victims []uint64
}

func newEvictRig(cfg Config, spill, ref bool) *evictRig {
	cat := catalog.New()
	cat.CreateTable("sys", "t", []catalog.ColDef{{Name: "v", Kind: bat.KInt}})
	if spill {
		cfg.Spill = nopTier{}
	}
	g := &evictRig{r: New(cat, cfg), ref: ref}
	g.r.testOnVictim = func(e *Entry) { g.victims = append(g.victims, e.ID) }
	return g
}

func (g *evictRig) clean(needBytes int64, needEntries int, protect []uint64) bool {
	if g.ref {
		return cleanCacheRef(g.r, needBytes, needEntries, protect, g.r.testOnVictim)
	}
	return g.r.cleanCache(needBytes, needEntries, protect)
}

// admit mirrors exitLocked's make-room-then-add sequence.
func (g *evictRig) admit(sig string, bytes int64, cost time.Duration, parents []uint64, qid uint64) {
	r := g.r
	r.lockWriter()
	defer r.mu.Unlock()
	if r.cfg.MaxBytes > 0 && r.pool.Bytes()+bytes > r.cfg.MaxBytes {
		if !g.clean(r.pool.Bytes()+bytes-r.cfg.MaxBytes, 0, parents) {
			return
		}
	}
	if r.cfg.MaxEntries > 0 && r.pool.Len()+1 > r.cfg.MaxEntries {
		if !g.clean(0, r.pool.Len()+1-r.cfg.MaxEntries, parents) {
			return
		}
	}
	e := mkEntry(sig, bytes, cost)
	e.stamps = []tableStamp{stampOver(r.pool, "sys.t")}
	for _, p := range parents {
		if r.pool.Get(p) != nil {
			e.DependsOn = append(e.DependsOn, p)
		}
	}
	now := r.pool.Tick()
	e.AdmitTick = now
	e.LastUseTick.Store(now)
	r.pool.Add(e)
	e.pinnedQuery.Store(qid)
}

func (g *evictRig) ids() []uint64 {
	var out []uint64
	for _, e := range g.r.pool.All() {
		out = append(out, e.ID)
	}
	return out
}

// checkFrontier verifies the incremental frontier against its
// definition and the heap against its invariants.
func checkFrontier(t *testing.T, p *Pool) {
	t.Helper()
	want := 0
	for _, e := range p.entries {
		leaf := e.dependents == 0
		if leaf {
			want++
		}
		if leaf != (e.heapPos > 0) {
			t.Fatalf("e%d: dependents=%d but heapPos=%d", e.ID, e.dependents, e.heapPos)
		}
	}
	if len(p.frontier) != want {
		t.Fatalf("frontier holds %d entries, pool has %d leaves", len(p.frontier), want)
	}
	for i, e := range p.frontier {
		if e.heapPos != i+1 || !e.valid.Load() {
			t.Fatalf("frontier[%d] = e%d: heapPos=%d valid=%v", i, e.ID, e.heapPos, e.valid.Load())
		}
		if i > 0 && leafBefore(e, p.frontier[(i-1)/2]) {
			t.Fatalf("heap order broken at %d", i)
		}
		if e.heapTick > e.LastUseTick.Load() {
			t.Fatalf("e%d keyed at %d, past its tick %d", e.ID, e.heapTick, e.LastUseTick.Load())
		}
	}
	checkNoSlackPointers(t, p)
}

// checkNoSlackPointers asserts that no index's backing array holds an
// entry past its length — the slack that used to pin evicted results.
func checkNoSlackPointers(t *testing.T, p *Pool) {
	t.Helper()
	slack := func(name string, s []*Entry) {
		for i, e := range s[len(s):cap(s)] {
			if e != nil {
				t.Fatalf("%s: slot %d past len %d still holds e%d", name, len(s)+i, len(s), e.ID)
			}
		}
	}
	slack("frontier", p.frontier)
	for k, s := range p.likeIdx {
		if len(s) == 0 {
			t.Fatalf("likeIdx[%s]: emptied key not dropped", k)
		}
		slack("likeIdx["+k+"]", s)
	}
}

func TestEvictionMatchesReference(t *testing.T) {
	for _, policy := range []EvictionKind{EvictLRU, EvictBP, EvictHP} {
		for _, limit := range []string{"bytes", "entries"} {
			for _, spill := range []bool{false, true} {
				cfg := Config{Admission: KeepAll, Eviction: policy}
				if limit == "bytes" {
					cfg.MaxBytes = 24_000
				} else {
					cfg.MaxEntries = 40
				}
				name := fmt.Sprintf("%s/%s/spill=%v", policy, limit, spill)
				t.Run(name, func(t *testing.T) {
					for seed := int64(1); seed <= 4; seed++ {
						runEvictionDiff(t, cfg, spill, seed)
					}
				})
			}
		}
	}
}

func runEvictionDiff(t *testing.T, cfg Config, spill bool, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	rigs := [2]*evictRig{newEvictRig(cfg, spill, false), newEvictRig(cfg, spill, true)}
	defer rigs[0].r.Close()
	defer rigs[1].r.Close()

	var open []uint64 // queries between BeginQuery and EndQuery
	nextQ := uint64(0)
	qid := func() uint64 {
		if len(open) == 0 {
			return 0
		}
		return open[rng.Intn(len(open))]
	}
	// pick draws a live entry id; both pools hold the same ids.
	pick := func() (uint64, bool) {
		ids := rigs[0].ids()
		if len(ids) == 0 {
			return 0, false
		}
		return ids[rng.Intn(len(ids))], true
	}
	for step := 0; step < 700; step++ {
		switch op := rng.Intn(100); {
		case op < 50: // admit, under up to two random parents
			var parents []uint64
			for n := rng.Intn(3); n > 0; n-- {
				if id, ok := pick(); ok && !slices.Contains(parents, id) {
					parents = append(parents, id)
				}
			}
			bytes := int64(8 * (1 + rng.Intn(400)))
			cost := time.Duration(1 + rng.Intn(1_000_000))
			q := qid()
			for _, g := range rigs {
				g.admit(fmt.Sprintf("s%d", step), bytes, cost, parents, q)
			}
		case op < 75: // hit: what noteReuse does to the entry
			id, ok := pick()
			if !ok {
				continue
			}
			q, global := qid(), rng.Intn(2) == 0
			for _, g := range rigs {
				e := g.r.pool.Get(id)
				e.ReuseCount.Add(1)
				e.LastUseTick.Store(g.r.pool.Tick())
				e.pinnedQuery.Store(q)
				if global {
					e.GlobalReuse.Store(true)
				}
			}
		case op < 83: // a query begins (pins what it touches from now on)
			if len(open) < 3 {
				nextQ++
				open = append(open, nextQ)
				for _, g := range rigs {
					g.r.BeginQuery(nextQ, 1)
				}
			}
		case op < 91: // a query ends (its pins lapse)
			if len(open) > 0 {
				i := rng.Intn(len(open))
				for _, g := range rigs {
					g.r.EndQuery(open[i])
				}
				open = append(open[:i], open[i+1:]...)
			}
		case op < 95: // invalidation takes an entry from anywhere in the DAG
			if id, ok := pick(); ok {
				for _, g := range rigs {
					g.r.lockWriter()
					g.r.invalidate(g.r.pool.Get(id))
					g.r.mu.Unlock()
				}
			}
		default: // maintenance swaps a result for one of another size
			if id, ok := pick(); ok {
				n := rng.Intn(300)
				for _, g := range rigs {
					g.r.lockWriter()
					e := g.r.pool.Get(id)
					g.r.refreshResult(e, mal.BatV(bat.NewDenseHead(bat.NewInts(make([]int64, n)))), nil, 0)
					g.r.mu.Unlock()
				}
			}
		}
		got, want := rigs[0], rigs[1]
		if fmt.Sprint(got.victims) != fmt.Sprint(want.victims) {
			t.Fatalf("seed %d step %d: victim sequences diverge\n frontier:  %v\n reference: %v", seed, step, tail(got.victims), tail(want.victims))
		}
		if fmt.Sprint(got.ids()) != fmt.Sprint(want.ids()) {
			t.Fatalf("seed %d step %d: pools diverge\n frontier:  %v\n reference: %v", seed, step, got.ids(), want.ids())
		}
		checkFrontier(t, got.r.pool)
	}
	if len(rigs[0].victims) < 50 {
		t.Fatalf("seed %d: only %d evictions — the history does not press on the cap", seed, len(rigs[0].victims))
	}
}

func tail(s []uint64) []uint64 {
	if len(s) > 12 {
		return s[len(s)-12:]
	}
	return s
}
