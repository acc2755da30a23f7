package bench

import (
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"
	"text/tabwriter"

	"repro"
	"repro/internal/opt"
	"repro/internal/recycler"
	"repro/internal/sky"
)

// This file implements the equivalent-query workload: semantically
// equal SQL statements that RENDER differently — shuffled conjunct
// order, >=/<= pairs vs BETWEEN, numeric literal spellings. It
// measures the recycler's exact-hit rate on the variants after the
// canonical spelling warmed the pool, once with the normalization
// pipeline disabled (the seed behaviour: every spelling is its own
// template, so variants miss) and once enabled (one template, one
// family of signatures: variants hit exactly). This is the tentpole's
// before/after validation, and CI gates on the normalized rate.

// EquivQuery is one canonical statement plus semantically equal
// spellings of it.
type EquivQuery struct {
	Canonical string
	Variants  []string
}

// conjunct is one predicate of the generated bounding-box query, with
// alternative spellings.
type conjunct struct {
	between string // canonical BETWEEN form
	pair    string // ">= lo AND <= hi" split form ("" when not a range)
}

// spellFloat renders a float bound in one of several equal spellings.
func spellFloat(v float64, style int) string {
	s := strconv.FormatFloat(v, 'g', -1, 64)
	if v == float64(int64(v)) {
		switch style % 3 {
		case 0:
			return strconv.FormatInt(int64(v), 10) // "10"
		case 1:
			return strconv.FormatInt(int64(v), 10) + ".0" // "10.0"
		default:
			return s
		}
	}
	return s
}

// EquivWorkload samples n bounding-box searches over sky.photoobj,
// each with `variants` distinct equivalent spellings. Bounds land on a
// 0.5° grid so integer-valued bounds exist and the int-vs-float
// spelling variants actually differ textually.
func EquivWorkload(n, variants int, seed int64) []EquivQuery {
	rng := rand.New(rand.NewSource(seed))
	out := make([]EquivQuery, 0, n)
	for i := 0; i < n; i++ {
		raLo := float64(rng.Intn(640)) * 0.5
		raHi := raLo + float64(rng.Intn(8)+1)*0.5
		decLo := float64(rng.Intn(300))*0.5 - 85
		decHi := decLo + float64(rng.Intn(6)+1)*0.5
		mk := func(style int) []conjunct {
			ra := [2]string{spellFloat(raLo, style), spellFloat(raHi, style+1)}
			dec := [2]string{spellFloat(decLo, style+2), spellFloat(decHi, style)}
			mode := "1"
			if style%2 == 1 {
				mode = "01"
			}
			return []conjunct{
				{between: "ra BETWEEN " + ra[0] + " AND " + ra[1],
					pair: "ra >= " + ra[0] + " AND ra <= " + ra[1]},
				{between: "dec BETWEEN " + dec[0] + " AND " + dec[1],
					pair: "dec >= " + dec[0] + " AND dec <= " + dec[1]},
				{between: "mode = " + mode},
			}
		}
		render := func(cs []conjunct, order []int, split bool) string {
			parts := make([]string, 0, len(cs))
			for _, j := range order {
				c := cs[j]
				if split && c.pair != "" {
					parts = append(parts, c.pair)
				} else {
					parts = append(parts, c.between)
				}
			}
			return "SELECT COUNT(*) FROM sky.photoobj WHERE " + strings.Join(parts, " AND ")
		}
		canonical := render(mk(2), []int{0, 1, 2}, false)
		q := EquivQuery{Canonical: canonical}
		seen := map[string]bool{canonical: true}
		for v := 0; len(q.Variants) < variants && v < variants*8; v++ {
			order := rng.Perm(3)
			split := v%2 == 1
			if !split && order[0] == 0 && order[1] == 1 {
				// A pure literal respell in canonical conjunct order
				// shares the canonical SHAPE even without
				// normalization; every variant must actually shuffle
				// (or split a range), so the baseline measures the
				// misses the issue is about.
				continue
			}
			s := render(mk(v), order, split)
			if !seen[s] {
				seen[s] = true
				q.Variants = append(q.Variants, s)
			}
		}
		out = append(out, q)
	}
	return out
}

// EquivResult is one configuration's outcome over the equivalence
// workload.
type EquivResult struct {
	Mode     string // "baseline" (normalization off) or "normalized"
	Queries  int    // canonical statements executed
	Variants int    // variant statements executed
	// Marked/Hits count non-bind monitored instructions and pool hits
	// over the VARIANT executions only (the canonical pass warms the
	// pool and is excluded).
	Marked int
	Hits   int
	// Templates is the number of distinct templates the front end
	// compiled — n under normalization, roughly n*(variants+1)
	// without.
	Templates int
}

// ExactHitRate returns variant pool hits over variant potential hits.
func (r *EquivResult) ExactHitRate() float64 {
	if r.Marked == 0 {
		return 0
	}
	return float64(r.Hits) / float64(r.Marked)
}

// RunEquiv executes the workload against a fresh recycled engine
// stack. normalized selects whether the normalization pipeline (SQL
// query normalization + commute + CSE) runs; subsumption stays off so
// every hit counted is an EXACT hit.
func RunEquiv(db *sky.DB, queries []EquivQuery, normalized bool) EquivResult {
	mode := "normalized"
	var opts opt.Options
	if !normalized {
		mode = "baseline"
		opts = opt.Options{SkipNormalizeSQL: true, SkipCSE: true, SkipCommute: true}
	}
	eng := repro.NewEngine(db.Cat,
		repro.WithRecycler(recycler.Config{Admission: recycler.KeepAll}),
		repro.WithOptimizer(opts))
	defer eng.Recycler().Close()

	res := EquivResult{Mode: mode, Queries: len(queries)}
	for _, q := range queries {
		if _, err := eng.ExecSQL(q.Canonical); err != nil {
			panic(fmt.Sprintf("equiv: canonical %q: %v", q.Canonical, err))
		}
		for _, v := range q.Variants {
			r, err := eng.ExecSQL(v)
			if err != nil {
				panic(fmt.Sprintf("equiv: variant %q: %v", v, err))
			}
			res.Variants++
			res.Marked += r.Stats.MarkedNonBind
			res.Hits += r.Stats.HitsNonBind
		}
	}
	res.Templates = eng.StatsSnapshot().TemplateCache.Size
	return res
}

// PrintEquiv renders the before/after comparison.
func PrintEquiv(w io.Writer, rows []EquivResult) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Mode\tQueries\tVariants\tTemplates\tExactHits\tPotential\tHitRate")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%.1f%%\n",
			r.Mode, r.Queries, r.Variants, r.Templates, r.Hits, r.Marked,
			100*r.ExactHitRate())
	}
	tw.Flush()
}
