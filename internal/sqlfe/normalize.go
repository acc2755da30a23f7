package sqlfe

import (
	"fmt"
	"sort"
	"strconv"
)

// This file implements query normalization: rewriting a parsed query
// into a canonical form so that semantically equal SQL texts compile
// to ONE shape, one cached template, and — downstream — one family of
// run-time signatures in the recycle pool. Without it, `WHERE a>1 AND
// b<2` and `WHERE b<2 AND a>1` occupy two templates whose instruction
// instances are guaranteed recycler misses.
//
// Normalization exploits exactly two algebraic facts:
//
//   - AND is commutative and associative, and every supported
//     predicate is a pure single-column filter, so the conjuncts of
//     WHERE may be reordered freely.
//   - `c >= lo AND c <= hi` is `c BETWEEN lo AND hi`.
//
// The pipeline runs in the front end, before Shape() is taken, so the
// template cache (and the server's prepared-statement layer above it)
// key on the normalized shape. It is gated by
// opt.Options.SkipNormalizeSQL for experiments that need the seed
// behaviour.

// Normalize rewrites q into canonical form in place and returns it:
// complementary >=/<= conjunct pairs merge into BETWEEN, then the
// conjunction is sorted by (column, operator, literal). Sorting by
// literal as the final tie-break makes even permutations of same-
// column same-operator conjuncts canonical: parameter extraction
// follows the sorted order, so equal instances produce equal parameter
// vectors too.
func Normalize(q *Query) *Query {
	q.Preds = mergeRangePairs(q.Preds)
	sort.SliceStable(q.Preds, func(i, j int) bool {
		return predLess(&q.Preds[i], &q.Preds[j])
	})
	return q
}

// mergeRangePairs folds `c >= lo` + `c <= hi` into `c BETWEEN lo AND
// hi` when the column has exactly one of each (both spellings bound
// the same closed interval; a conjunction is order-free). Columns with
// other range shapes (strict bounds, duplicates) are left alone —
// BETWEEN is inclusive-inclusive only.
func mergeRangePairs(preds []Pred) []Pred {
	type bounds struct{ ge, le, other int }
	colBounds := map[string]*bounds{}
	for i := range preds {
		b := colBounds[preds[i].Col]
		if b == nil {
			b = &bounds{ge: -1, le: -1}
			colBounds[preds[i].Col] = b
		}
		switch preds[i].Op {
		case OpGe:
			if b.ge >= 0 {
				b.other++
			} else {
				b.ge = i
			}
		case OpLe:
			if b.le >= 0 {
				b.other++
			} else {
				b.le = i
			}
		case OpGt, OpLt, OpBetween:
			b.other++
		}
	}
	drop := map[int]bool{}
	for _, b := range colBounds {
		if b.ge < 0 || b.le < 0 || b.other > 0 {
			continue
		}
		preds[b.ge] = Pred{
			Col:  preds[b.ge].Col,
			Op:   OpBetween,
			Args: []Lit{preds[b.ge].Args[0], preds[b.le].Args[0]},
		}
		drop[b.le] = true
	}
	if len(drop) == 0 {
		return preds
	}
	out := preds[:0]
	for i := range preds {
		if !drop[i] {
			out = append(out, preds[i])
		}
	}
	return out
}

// predLess orders conjuncts by (column, operator, literals).
func predLess(a, b *Pred) bool {
	if a.Col != b.Col {
		return a.Col < b.Col
	}
	if a.Op != b.Op {
		return a.Op < b.Op
	}
	for i := 0; i < len(a.Args) && i < len(b.Args); i++ {
		ka, kb := litKey(a.Args[i]), litKey(b.Args[i])
		if ka != kb {
			return ka < kb
		}
	}
	return len(a.Args) < len(b.Args)
}

// litKey renders a literal's canonical comparison key. Numeric
// spellings collapse (10, 10.0 and 1e1 order equally — the front end
// types them identically against the column later), and date literals
// collapse to their padded ISO form.
func litKey(l Lit) string {
	switch l.Kind {
	case LInt:
		return "n" + strconv.FormatFloat(float64(l.I), 'g', -1, 64)
	case LFloat:
		return "n" + strconv.FormatFloat(l.F, 'g', -1, 64)
	case LDate:
		if y, m, d, err := splitISODate(l.S); err == nil {
			return fmt.Sprintf("d%04d-%02d-%02d", y, m, d)
		}
		return "d" + l.S
	default:
		return "s" + l.S
	}
}
