package recycler

import (
	"slices"
	"sort"
)

// EvictionKind selects the eviction policy (paper §4.3).
type EvictionKind int

// Eviction policies.
const (
	// EvictLRU evicts the least recently used leaf entries.
	EvictLRU EvictionKind = iota
	// EvictBP evicts the leaves with the smallest benefit
	// B(I) = Cost(I) * Weight(I) (Eq. 1–2).
	EvictBP
	// EvictHP evicts by the history metric B/(now - admit) (Eq. 3).
	EvictHP
)

// String names the policy.
func (k EvictionKind) String() string {
	switch k {
	case EvictLRU:
		return "lru"
	case EvictBP:
		return "bp"
	case EvictHP:
		return "hp"
	}
	return "?"
}

// cleanCache frees room for a new intermediate of the given size,
// and/or one pool entry when the entry limit is reached. It works in
// rounds over the pool's leaf frontier: a round picks its victims among
// the leaves that exist when it starts and then evicts them, so leaves
// that an eviction exposes are first considered in the next round.
// Entries pinned by currently active queries are passed over; when the
// active queries' own intermediates fill the pool, the pins are lifted
// except for the direct arguments of the pending admission (protect —
// the footnote-3 exception). Caller holds the writer lock; the
// active-query set is snapshotted once instead of re-reading activeMu
// per leaf.
func (r *Recycler) cleanCache(needBytes int64, needEntries int, protect []uint64) bool {
	var buf [8]uint64
	active := r.activeSnapshot(buf[:0])
	for needBytes > 0 || needEntries > 0 {
		victims := r.pickVictims(needBytes, protect, active)
		if len(victims) == 0 && len(active) > 0 {
			// Active-queries-fill-pool exception: consider pinned
			// leaves too, still excluding direct arguments.
			victims = r.pickVictims(needBytes, protect, nil)
		}
		if len(victims) == 0 {
			return false
		}
		for _, v := range victims {
			needBytes -= v.Bytes
			needEntries--
			if r.testOnVictim != nil {
				r.testOnVictim(v)
			}
			r.evict(v)
		}
	}
	return true
}

// evictable reports whether a leaf is neither a direct argument of the
// pending admission nor pinned by one of the given active queries.
func evictable(e *Entry, protect, active []uint64) bool {
	return !slices.Contains(protect, e.ID) && !slices.Contains(active, e.pinnedQuery.Load())
}

// pickVictims chooses one round's victims under the active policy
// among the leaves that are neither protected nor pinned by a query in
// active: with needBytes > 0 enough of them to free that much (all of
// them when even that falls short — the caller iterates), otherwise
// the single worst one (the entry-limit variant).
func (r *Recycler) pickVictims(needBytes int64, protect, active []uint64) []*Entry {
	if r.cfg.Eviction != EvictBP && r.cfg.Eviction != EvictHP {
		return r.pickLRU(needBytes, protect, active)
	}
	// Benefit and history metrics move with every reuse and with the
	// clock, so no standing order exists to pop from: rank the current
	// frontier. In id order, which fixes how ties fall.
	var leaves []*Entry
	for _, e := range r.pool.frontier {
		if evictable(e, protect, active) {
			leaves = append(leaves, e)
		}
	}
	if len(leaves) == 0 {
		return nil
	}
	sort.Slice(leaves, func(i, j int) bool { return leaves[i].ID < leaves[j].ID })
	if needBytes > 0 {
		return r.pickVictimsMem(leaves, needBytes)
	}
	return []*Entry{r.worstLeaf(leaves)}
}

// pickLRU pops leaves oldest-first until enough bytes are freed (or,
// for the entry limit, one is found). Ineligible leaves are set aside
// and pushed back. Victims leave the frontier here; the caller evicts
// them all.
func (r *Recycler) pickLRU(needBytes int64, protect, active []uint64) []*Entry {
	var victims, aside []*Entry
	var freed int64
	more := false
	for len(victims) == 0 || freed <= needBytes {
		e := r.pool.popLeaf()
		if e == nil {
			break
		}
		if !evictable(e, protect, active) {
			aside = append(aside, e)
			continue
		}
		if len(victims) > 0 && freed >= needBytes {
			// Exactly enough freed: e only tells that the frontier
			// holds more than was needed.
			aside = append(aside, e)
			more = true
			break
		}
		victims = append(victims, e)
		freed += e.Bytes
	}
	for _, e := range aside {
		r.pool.pushLeaf(e)
	}
	if needBytes > 0 && !more && freed <= needBytes {
		// Even the whole frontier falls short: it goes in id order, the
		// order rounds are defined in (eviction_ref_test.go holds the
		// victim sequence to it); only a partial round is by recency.
		sort.Slice(victims, func(i, j int) bool { return victims[i].ID < victims[j].ID })
	}
	return victims
}

// benefit is the metric BP/HP rank leaves by.
func (r *Recycler) benefit(e *Entry, now int64) float64 {
	if r.cfg.Eviction == EvictHP {
		return e.HistoryBenefit(now)
	}
	return e.Benefit()
}

func (r *Recycler) worstLeaf(leaves []*Entry) *Entry {
	now := r.pool.Now()
	worst := leaves[0]
	for _, e := range leaves[1:] {
		if r.benefit(e, now) < r.benefit(worst, now) {
			worst = e
		}
	}
	return worst
}

// pickVictimsMem solves the memory variant for BP/HP: the
// complementary binary knapsack with the greedy 2-approximation the
// paper describes — keep the most beneficial leaves that fit in
// (total - required), evict the rest; the greedy keep-set is compared
// with the single item of maximum profit.
func (r *Recycler) pickVictimsMem(leaves []*Entry, needBytes int64) []*Entry {
	var total int64
	for _, e := range leaves {
		total += e.Bytes
	}
	if total <= needBytes {
		// Evict the whole frontier; the caller iterates.
		return leaves
	}

	now := r.pool.Now()
	benefit := func(e *Entry) float64 { return r.benefit(e, now) }
	capacity := total - needBytes

	// Greedy by profit per unit weight.
	s := append([]*Entry(nil), leaves...)
	sort.Slice(s, func(i, j int) bool {
		bi := benefit(s[i]) / float64(max64(s[i].Bytes, 1))
		bj := benefit(s[j]) / float64(max64(s[j].Bytes, 1))
		return bi > bj
	})
	keep := make(map[uint64]bool, len(s))
	var kept int64
	var keptBenefit float64
	for _, e := range s {
		if kept+e.Bytes <= capacity {
			keep[e.ID] = true
			kept += e.Bytes
			keptBenefit += benefit(e)
		}
	}
	// Alternative: the single max-profit item (2-approximation bound).
	var best *Entry
	for _, e := range leaves {
		if e.Bytes <= capacity && (best == nil || benefit(e) > benefit(best)) {
			best = e
		}
	}
	if best != nil && benefit(best) > keptBenefit {
		keep = map[uint64]bool{best.ID: true}
	}
	var out []*Entry
	for _, e := range leaves {
		if !keep[e.ID] {
			out = append(out, e)
		}
	}
	return out
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// evict removes an entry, returning credits where due.
func (r *Recycler) evict(e *Entry) {
	r.adm.onEvict(e)
	r.pool.Remove(e)
}
