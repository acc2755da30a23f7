package catalog_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/bat"
	"repro/internal/catalog"
	"repro/internal/sky"
	"repro/internal/tpch"
)

// TestTypedLoadMatchesRowAppends: the generators load every table
// column by column (AppendColumns). Each table is built again from the
// same values through Append([]Row), in two statements — so the second
// extends loaded columns, their dictionaries, sorted flags and key
// indexes — and must come out equal: values, decoded strings and their
// codes, sorted flags, row counts, key indexes and join indexes.
func TestTypedLoadMatchesRowAppends(t *testing.T) {
	for name, cat := range map[string]*catalog.Catalog{
		"sky":  sky.Generate(2000, 17).Cat,
		"tpch": tpch.Generate(0.002, 7).Cat,
	} {
		t.Run(name, func(t *testing.T) {
			if err := sameCatalog(cat, rebuildFromRows(t, cat)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// rebuildFromRows builds every table of cat again in a new catalog from
// its exported values, appended as rows in two halves, then defines the
// same key and join indexes.
func rebuildFromRows(t *testing.T, cat *catalog.Catalog) *catalog.Catalog {
	t.Helper()
	states, _ := cat.ExportState()
	out := catalog.New()
	rows := make([][]catalog.Row, len(states))
	for i, ts := range states {
		out.CreateTable(ts.Schema, ts.Name, ts.Cols)
		rows[i] = make([]catalog.Row, ts.NRows)
		for r := range rows[i] {
			rows[i][r] = catalog.Row{}
			for c, d := range ts.Cols {
				rows[i][r][d.Name] = ts.Data[c].Get(r)
			}
		}
	}
	half := func(i int) int { return len(rows[i]) / 2 }
	for i, ts := range states {
		out.MustTable(ts.Schema, ts.Name).Append(rows[i][:half(i)])
	}
	for _, ts := range states {
		for _, col := range ts.KeyIndexCols {
			out.MustTable(ts.Schema, ts.Name).DefineKeyIndex(col)
		}
	}
	for i, ts := range states {
		out.MustTable(ts.Schema, ts.Name).Append(rows[i][half(i):])
	}
	for _, ts := range states {
		for _, j := range ts.JoinIndexes {
			out.MustTable(ts.Schema, ts.Name).DefineJoinIndex(j.Name, j.FKCol, out.MustTable(j.ParentSchema, j.ParentName), j.ParentKey)
		}
	}
	return out
}

// sameCatalog reports the first difference between two catalogs' tables.
func sameCatalog(want, got *catalog.Catalog) error {
	ws, _ := want.ExportState()
	gs, _ := got.ExportState()
	if len(ws) != len(gs) {
		return fmt.Errorf("%d tables, want %d", len(gs), len(ws))
	}
	for i, w := range ws {
		g := gs[i]
		name := w.Schema + "." + w.Name
		switch {
		case !slices.Equal(g.Cols, w.Cols):
			return fmt.Errorf("%s: columns %+v, want %+v", name, g.Cols, w.Cols)
		case g.NRows != w.NRows:
			return fmt.Errorf("%s: %d rows, want %d", name, g.NRows, w.NRows)
		case !slices.Equal(g.KeyIndexCols, w.KeyIndexCols) || !slices.Equal(g.JoinIndexes, w.JoinIndexes):
			return fmt.Errorf("%s: indexes %v %v, want %v %v", name, g.KeyIndexCols, g.JoinIndexes, w.KeyIndexCols, w.JoinIndexes)
		}
		for c, d := range w.Cols {
			if err := sameVector(w.Data[c], g.Data[c]); err != nil {
				return fmt.Errorf("%s.%s: %v", name, d.Name, err)
			}
		}
		wt, gt := want.MustTable(w.Schema, w.Name), got.MustTable(g.Schema, g.Name)
		for _, col := range w.KeyIndexCols {
			for _, k := range w.Data[slices.IndexFunc(w.Cols, func(d catalog.ColDef) bool { return d.Name == col })].(*bat.Ints).V {
				wo, wok := wt.LookupKey(col, k)
				if o, ok := gt.LookupKey(col, k); o != wo || ok != wok {
					return fmt.Errorf("%s: key %s=%d at %d %v, want %d %v", name, col, k, o, ok, wo, wok)
				}
			}
		}
		for _, j := range w.JoinIndexes {
			if err := sameVector(wt.BindIdx(j.Name).Tail, gt.BindIdx(j.Name).Tail); err != nil {
				return fmt.Errorf("%s: join index %s: %v", name, j.Name, err)
			}
		}
	}
	return nil
}

// sameVector reports the first value two vectors differ in; strings
// must agree in their decoded values and their codes.
func sameVector(want, got bat.Vector) error {
	if want.Len() != got.Len() || want.Kind() != got.Kind() {
		return fmt.Errorf("%d %v values, want %d %v", got.Len(), got.Kind(), want.Len(), want.Kind())
	}
	if ws, ok := want.(*bat.Strings); ok {
		if gs := got.(*bat.Strings); !slices.Equal(gs.C, ws.C) {
			return fmt.Errorf("string codes differ")
		}
	}
	for i := range want.Len() {
		if w, g := want.Get(i), got.Get(i); w != g {
			return fmt.Errorf("row %d = %v, want %v", i, g, w)
		}
	}
	return nil
}
