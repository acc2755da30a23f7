package algebra

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/bat"
)

// String differentials: the kernels over dictionary codes against the
// boxed references, which read decoded values through Get. Inputs are
// drawn from string columns of low (a handful of values) and high (about
// one value a row) cardinality, holding "" and bat.NilStr, built by a
// load and an append that grows the dictionary. Kernel inputs are
// samples of such a column, so they share its dictionary — a sample of
// a high-cardinality column has a dictionary longer than itself, which
// takes the per-row paths — and two columns meet with different
// dictionaries in joins and unions.

// strColumn builds a column of n strings over card distinct words, ""
// and nil: a load, then an append of as many rows again that brings
// words the load lacked into its dictionary.
func strColumn(rng *rand.Rand, n, card int) *bat.Strings {
	word := func(hi int) string {
		switch rng.Intn(12) {
		case 0:
			return ""
		case 1:
			return bat.NilStr
		}
		return fmt.Sprintf("w%04d", rng.Intn(hi))
	}
	load, more := make([]string, n/2), make([]string, n-n/2)
	for i := range load {
		load[i] = word(max(1, card/2))
	}
	for i := range more {
		more[i] = word(card)
	}
	col := bat.NewStrings(load)
	before := col.D.Len()
	out := bat.Extend(col, bat.NewStrings(more)).(*bat.Strings)
	if out.D != col.D || (card > 4 && n > 40 && out.D.Len() <= before) {
		panic("strColumn: the append did not grow the column's dictionary")
	}
	return out
}

// strSample gathers n random rows of col, sharing its dictionary.
func strSample(rng *rand.Rand, col *bat.Strings, n int) *bat.Strings {
	sel := make(bat.SelectionVector, n)
	for i := range sel {
		sel[i] = int32(rng.Intn(col.Len()))
	}
	return bat.GatherVectorSel(col, sel).(*bat.Strings)
}

// strCard draws a low or a high cardinality for a column of n rows.
func strCard(rng *rand.Rand, n int) int {
	if rng.Intn(2) == 0 {
		return 4
	}
	return 2 * n
}

// strBound draws a bound or an equality value: a word, "", nil, or a
// string between words.
func strBound(rng *rand.Rand, card int) string {
	switch rng.Intn(6) {
	case 0:
		return ""
	case 1:
		return bat.NilStr
	case 2:
		return fmt.Sprintf("w%03d", rng.Intn(card/10+1))
	}
	return fmt.Sprintf("w%04d", rng.Intn(card+1))
}

func TestStringsMatchSeedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	patterns := []string{"%1%", "w00%", "%", "", "w_0%", "%3", "_"}
	t.Run("filter", func(t *testing.T) {
		for trial := 0; trial < 600; trial++ {
			n := rng.Intn(200) + 1
			card := strCard(rng, n)
			col := strColumn(rng, 2*n, card)
			tail := strSample(rng, col, n)
			sorted := trial%4 == 0
			if sorted {
				// Sorted values need not have sorted codes.
				v := tail.Decode()
				v = slices.DeleteFunc(v, func(s string) bool { return s == bat.NilStr })
				sort.Strings(v)
				tail = bat.StringsOf(col.D.Encode(v), col.D)
			}
			b := bat.New(bat.NewDense(bat.Oid(rng.Intn(5)), tail.Len()), tail)
			b.TailSorted = sorted
			ctxt := fmt.Sprintf("trial %d (n %d, card %d, dict %d, sorted %v)", trial, tail.Len(), card, col.D.Len(), sorted)
			lo, hi := strBound(rng, card), strBound(rng, card)
			incLo, incHi := rng.Intn(2) == 0, rng.Intn(2) == 0
			var ranged [2]any
			for i, s := range []string{lo, hi} {
				if rng.Intn(4) > 0 {
					ranged[i] = s
				}
			}
			expectPairs(t, "range "+ctxt, b, Filter(b, inRange(ranged[0], ranged[1], incLo, incHi)), refSelect(b, ranged[0], ranged[1], incLo, incHi))
			w := strBound(rng, card)
			if rng.Intn(2) == 0 && b.Len() > 0 {
				w = tail.At(rng.Intn(b.Len()))
			}
			got, want := Filter(b, equalTo(w)), refUselect(b, w)
			if got.Len() != len(want) || !ownTail(got) && got.Len() > 0 {
				t.Fatalf("uselect %q %s: %d rows (own tail %v), want %d", w, ctxt, got.Len(), ownTail(got), len(want))
			}
			for k, i := range want {
				if bat.OidAt(got.Head, k) != bat.OidAt(b.Head, i) {
					t.Fatalf("uselect %q %s row %d: head %v, want %v", w, ctxt, k, bat.OidAt(got.Head, k), bat.OidAt(b.Head, i))
				}
			}
			expectPairs(t, "notnil "+ctxt, b, Filter(b, Pred{Kind: PredNotNil}), refSelectNotNil(b))
			pat := patterns[rng.Intn(len(patterns))]
			expectPairs(t, fmt.Sprintf("like %q %s", pat, ctxt), b, Filter(b, Pred{Kind: PredLike, Pattern: pat}), refLike(b, pat, true))
			expectPairs(t, fmt.Sprintf("not like %q %s", pat, ctxt), b, Filter(b, Pred{Kind: PredNotLike, Pattern: pat}), refLike(b, pat, false))
		}
	})
	t.Run("join", func(t *testing.T) {
		for trial := 0; trial < 400; trial++ {
			ln, rn := rng.Intn(80)+1, rng.Intn(80)+1
			card, scale := strCard(rng, max(ln, rn)/4+1), 2
			if trial%4 == 3 {
				// A few rows over large dictionaries: only the rows'
				// values are translated.
				card, scale = 20*(ln+rn), 20
			}
			lcol := strColumn(rng, scale*ln, card)
			rcol := lcol
			if trial%2 == 1 {
				rcol = strColumn(rng, scale*rn, card) // another dictionary, overlapping words
			}
			l := bat.New(bat.NewDense(0, ln), strSample(rng, lcol, ln))
			r := bat.New(strSample(rng, rcol, rn), randVector(rng, bat.KInt, rn, false))
			expectJoin(t, fmt.Sprintf("string join trial %d (shared dict %v)", trial, lcol == rcol), l, r)
		}
	})
	t.Run("semijoin", func(t *testing.T) {
		for trial := 0; trial < 300; trial++ {
			n := rng.Intn(120) + 1
			col := strColumn(rng, n, strCard(rng, n))
			b := bat.NewDenseHead(col)
			// L: a uselect result over the column (its tail is its head)
			// or a string-tailed selection of it.
			var l *bat.BAT
			if trial%2 == 0 {
				l = Filter(b, equalTo(col.At(rng.Intn(n))))
			} else {
				l = Filter(b, Pred{Kind: PredLike, Pattern: patterns[rng.Intn(len(patterns))]})
			}
			rh := make([]bat.Oid, rng.Intn(n)+1)
			for i := range rh {
				rh[i] = bat.Oid(rng.Intn(n + 5))
			}
			r := bat.New(bat.NewOids(rh), randVector(rng, bat.KInt, len(rh), false))
			ctxt := fmt.Sprintf("string semijoin trial %d (|L| %d, |R| %d)", trial, l.Len(), r.Len())
			got := Semijoin(l, r)
			expectPairs(t, ctxt, l, got, refSemijoin(l, r))
			if ownTail(l) && !ownTail(got) {
				t.Fatalf("%s: a uselect-shaped L lost its shape", ctxt)
			}
			anti := AntiSemijoin(l, r)
			expectPairs(t, "anti "+ctxt, l, anti, refAntiSemijoin(l, r))
		}
	})
	t.Run("group", func(t *testing.T) {
		for trial := 0; trial < 300; trial++ {
			n := rng.Intn(150) + 1
			rows, card := 2*n, strCard(rng, n)
			if trial%4 == 3 {
				// A few rows of a column whose dictionary is many times
				// longer: the group ids hash the codes.
				rows, card = 40*n, 40*n
			}
			col := strColumn(rng, rows, card)
			b := bat.New(bat.NewDense(0, n), strSample(rng, col, n))
			g := GroupNew(b)
			want, ng := refGroupNew(b)
			if g.NGroups != ng {
				t.Fatalf("group trial %d: ngroups %d, want %d", trial, g.NGroups, ng)
			}
			for i, id := range g.Grp.Tail.(*bat.Oids).V {
				if int(id) != want[i] {
					t.Fatalf("group trial %d row %d: id %d, want %d", trial, i, id, want[i])
				}
			}
			b2 := bat.New(bat.NewDense(0, n), strSample(rng, strColumn(rng, n, strCard(rng, n)), n))
			d := GroupDerive(g, b2)
			m := map[[2]any]int{}
			for i := 0; i < n; i++ {
				k := [2]any{want[i], b2.Tail.Get(i)}
				id, ok := m[k]
				if !ok {
					id = len(m)
					m[k] = id
				}
				if int(d.Grp.Tail.(*bat.Oids).V[i]) != id {
					t.Fatalf("derive trial %d row %d: id %d, want %d", trial, i, d.Grp.Tail.(*bat.Oids).V[i], id)
				}
			}
			if d.NGroups != len(m) {
				t.Fatalf("derive trial %d: ngroups %d, want %d", trial, d.NGroups, len(m))
			}
		}
	})
	t.Run("merge", func(t *testing.T) {
		type row struct {
			head bat.Oid
			tail any
		}
		for trial := 0; trial < 300; trial++ {
			n := rng.Intn(60) + 1
			cols := []*bat.Strings{strColumn(rng, 3*n, strCard(rng, n))}
			if trial%2 == 1 {
				cols = append(cols, strColumn(rng, 3*n, strCard(rng, n)))
			}
			parts := make([]*bat.BAT, 2+trial%2)
			for i := range parts {
				col := cols[i%len(cols)]
				p := Filter(bat.NewDenseHead(col), Pred{Kind: PredLike, Pattern: patterns[rng.Intn(len(patterns))]})
				if rng.Intn(3) == 0 {
					p = bat.GatherSel(p, shuffledSel(rng, p.Len()))
				}
				parts[i] = p
			}
			var want []row
			for _, p := range parts {
				for i := 0; i < p.Len(); i++ {
					want = append(want, row{bat.OidAt(p.Head, i), p.Tail.Get(i)})
				}
			}
			sort.SliceStable(want, func(i, j int) bool { return want[i].head < want[j].head })
			want = slices.CompactFunc(want, func(a, b row) bool { return a.head == b.head })
			got := MergeDedupByHead(parts)
			ctxt := fmt.Sprintf("string merge trial %d (%d dictionaries)", trial, len(cols))
			if got.Len() != len(want) || !got.HeadSorted || !got.KeyUnique {
				t.Fatalf("%s: %d rows (sorted %v, unique %v), want %d", ctxt, got.Len(), got.HeadSorted, got.KeyUnique, len(want))
			}
			for i, w := range want {
				if bat.OidAt(got.Head, i) != w.head || got.Tail.Get(i) != w.tail {
					t.Fatalf("%s row %d: (%v, %q), want (%v, %q)", ctxt, i, bat.OidAt(got.Head, i), got.Tail.Get(i), w.head, w.tail)
				}
			}
			if s := got.Tail.(*bat.Strings); len(cols) == 1 && s.D != cols[0].D {
				t.Fatalf("%s: parts over one dictionary merged into another", ctxt)
			}
		}
	})
	t.Run("sort", func(t *testing.T) {
		for trial := 0; trial < 300; trial++ {
			n := rng.Intn(150) + 1
			col := strColumn(rng, 2*n, strCard(rng, n))
			b := bat.New(bat.NewDense(0, n), strSample(rng, col, n))
			asc := trial%2 == 0
			want := make([]int, n)
			for i := range want {
				want[i] = i
			}
			v := b.Tail.(*bat.Strings).Decode()
			sort.SliceStable(want, func(i, j int) bool {
				if asc {
					return v[want[i]] < v[want[j]]
				}
				return v[want[j]] < v[want[i]]
			})
			expectPairs(t, fmt.Sprintf("string sort trial %d (asc %v)", trial, asc), b, SortByTail(b, asc), want)
		}
	})
	t.Run("kunique", func(t *testing.T) {
		for trial := 0; trial < 300; trial++ {
			n := rng.Intn(150) + 1
			col := strColumn(rng, 2*n, strCard(rng, n))
			b := bat.New(strSample(rng, col, n), bat.NewDense(0, n))
			got, want := KUnique(b), refKUnique(b)
			if got.Len() != len(want) || !got.KeyUnique {
				t.Fatalf("string kunique trial %d: %d rows (unique %v), want %d", trial, got.Len(), got.KeyUnique, len(want))
			}
			for k, i := range want {
				if got.Head.Get(k) != b.Head.Get(i) || got.Tail.Get(k) != b.Tail.Get(i) {
					t.Fatalf("string kunique trial %d row %d: (%q, %v), want (%q, %v)", trial, k, got.Head.Get(k), got.Tail.Get(k), b.Head.Get(i), b.Tail.Get(i))
				}
			}
		}
	})
}
