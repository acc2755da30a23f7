package bench

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro"
	"repro/internal/mal"
	"repro/internal/opt"
	"repro/internal/sky"
)

// TestEquivWorkloadDeterministicAndEquivalent: the generator is
// seed-stable, and every variant really is a different spelling of its
// canonical statement.
func TestEquivWorkloadDeterministicAndEquivalent(t *testing.T) {
	a := EquivWorkload(10, 3, 42)
	b := EquivWorkload(10, 3, 42)
	if len(a) != 10 {
		t.Fatalf("queries = %d", len(a))
	}
	for i := range a {
		if a[i].Canonical != b[i].Canonical {
			t.Fatal("generator not deterministic")
		}
		if len(a[i].Variants) == 0 {
			t.Fatalf("query %d has no variants", i)
		}
		for _, v := range a[i].Variants {
			if v == a[i].Canonical {
				t.Fatalf("variant equals canonical: %q", v)
			}
		}
	}
}

// TestEquivNormalizationTurnsMissesIntoHits is the tentpole's
// acceptance check at unit scale: with normalization the variant
// exact-hit rate is >= 95% (in fact 100%), without it the same
// workload mostly misses, and both configurations return identical
// COUNT(*) answers.
func TestEquivNormalizationTurnsMissesIntoHits(t *testing.T) {
	db := sky.Generate(2000, 17)
	queries := EquivWorkload(15, 3, 42)
	base := RunEquiv(db, queries, false)
	norm := RunEquiv(db, queries, true)
	if rate := norm.ExactHitRate(); rate < 0.95 {
		t.Fatalf("normalized exact-hit rate = %.2f, want >= 0.95", rate)
	}
	if base.ExactHitRate() > 0.5 {
		t.Fatalf("baseline exact-hit rate = %.2f, want low (misses)", base.ExactHitRate())
	}
	if norm.Templates != 1 {
		t.Fatalf("normalized templates = %d, want 1", norm.Templates)
	}
	if base.Templates <= norm.Templates {
		t.Fatalf("baseline templates = %d, want > %d", base.Templates, norm.Templates)
	}

	var buf bytes.Buffer
	PrintEquiv(&buf, []EquivResult{base, norm})
	if !strings.Contains(buf.String(), "normalized") {
		t.Fatal("print output incomplete")
	}
}

// skySQLWorkload samples n SQL statements following the §8.1 log
// statistics of sky.SampleWorkload: >60% bounding-box searches over two
// overlapping footprints, ~36% documentation lookups, ~2% point
// queries.
func skySQLWorkload(n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	footprints := [][4]float64{
		{195.0, 197.5, 2.0, 3.0},
		{195.5, 198.0, 2.2, 3.2},
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		r := rng.Float64()
		switch {
		case r < 0.62:
			fp := footprints[rng.Intn(2)]
			out = append(out, fmt.Sprintf(
				"SELECT COUNT(*) FROM sky.photoobj WHERE ra BETWEEN %g AND %g AND dec BETWEEN %g AND %g AND mode = 1",
				fp[0], fp[1], fp[2], fp[3]))
		case r < 0.98:
			out = append(out, fmt.Sprintf(
				"SELECT description FROM sky.dbobjects WHERE name = 'dbobj_%03d'", rng.Intn(40)))
		default:
			out = append(out, fmt.Sprintf(
				"SELECT z FROM sky.elredshift WHERE specobjid = %d", int64(0x0559000000000000)+int64(rng.Intn(100))))
		}
	}
	return out
}

// TestGeneratedSkySQLOptimizePreservesResults: every statement of the
// generated SkySQL workload returns bit-identical results whether the
// engine compiles with the full normalization pipeline or with every
// pass disabled.
func TestGeneratedSkySQLOptimizePreservesResults(t *testing.T) {
	db := sky.Generate(2000, 17)
	raw := repro.NewEngine(db.Cat, repro.WithOptimizer(opt.Options{
		SkipConstFold: true, SkipDeadCode: true, SkipCommute: true,
		SkipCSE: true, SkipNormalizeSQL: true,
	}))
	full := repro.NewEngine(db.Cat)
	for _, sql := range skySQLWorkload(40, 42) {
		want, err := raw.ExecSQL(sql)
		if err != nil {
			t.Fatalf("raw %q: %v", sql, err)
		}
		got, err := full.ExecSQL(sql)
		if err != nil {
			t.Fatalf("optimized %q: %v", sql, err)
		}
		if len(want.Results) != len(got.Results) {
			t.Fatalf("%q: result count %d != %d", sql, len(want.Results), len(got.Results))
		}
		for i := range want.Results {
			va, vb := want.Results[i].Val, got.Results[i].Val
			if va.Kind != vb.Kind {
				t.Fatalf("%q col %d: kind %v != %v", sql, i, va.Kind, vb.Kind)
			}
			if va.Kind != mal.VBat {
				if !va.EqualConst(vb) {
					t.Fatalf("%q col %d: %v != %v", sql, i, va, vb)
				}
				continue
			}
			if va.Bat.Len() != vb.Bat.Len() {
				t.Fatalf("%q col %d: len %d != %d", sql, i, va.Bat.Len(), vb.Bat.Len())
			}
			for j := 0; j < va.Bat.Len(); j++ {
				if va.Bat.Tail.Get(j) != vb.Bat.Tail.Get(j) {
					t.Fatalf("%q col %d row %d differs", sql, i, j)
				}
			}
		}
	}
}
