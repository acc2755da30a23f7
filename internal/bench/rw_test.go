package bench

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/sky"
)

// TestRWPresetsCountsAndFreshCatalogs pins the mixed read/write gate at
// its CI scale (5000 objects, 60 ops, 10% writes, seed 42): the exact
// per-preset counts, maintain's >= 2x exact-hit gain over invalidate,
// and that every preset runs on its own pristine catalog — 5000 live
// rows at the start and no objid occurring twice at the end.
func TestRWPresetsCountsAndFreshCatalogs(t *testing.T) {
	var dbs []*sky.DB
	gen := func() *sky.DB {
		db := sky.Generate(5000, 17)
		dbs = append(dbs, db)
		return db
	}
	rows := RWPresets(gen, 60, 0.10, 42)
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	if len(dbs) != 3 {
		t.Errorf("presets ran on %d catalogs, want 3", len(dbs))
	}
	want := []RWResult{
		{Mode: "invalidate", StartRows: 5000, Reads: 54, Writes: 6, Marked: 324, Hits: 72, Invalidated: 303},
		{Mode: "propagate", StartRows: 5000, Reads: 54, Writes: 6, Marked: 324, Hits: 114, Invalidated: 240, Maintained: 90, Fallback: 240, DeltaRows: 70},
		{Mode: "maintain", StartRows: 5000, Reads: 54, Writes: 6, Marked: 324, Hits: 324, Maintained: 450, DeltaRows: 78},
	}
	for i, r := range rows {
		if r != want[i] {
			t.Errorf("preset %d = %+v, want %+v", i, r, want[i])
		}
	}
	if inval, maint := rows[0].ExactHitRate(), rows[2].ExactHitRate(); maint < 2*inval {
		t.Errorf("maintain exact-hit rate %.3f < 2x invalidate's %.3f", maint, inval)
	}
	for i, db := range dbs {
		ids := db.Cat.Table(sky.Schema, "photoobj").MustColumn("objid").Bind().Tail
		seen := map[any]bool{}
		for j := 0; j < ids.Len(); j++ {
			v := ids.Get(j)
			if seen[v] {
				t.Errorf("preset %s: objid %v occurs twice", rows[i].Mode, v)
				break
			}
			seen[v] = true
		}
	}
	var buf bytes.Buffer
	PrintRW(&buf, rows)
	if !strings.Contains(buf.String(), "maintain") {
		t.Fatal("print output incomplete")
	}
}
