package server

import (
	"strings"
	"testing"

	"repro/internal/bat"
	"repro/internal/catalog"
)

func dmlCatalog() *catalog.Catalog {
	cat := catalog.New()
	t := cat.CreateTable("sys", "m", []catalog.ColDef{
		{Name: "id", Kind: bat.KInt},
		{Name: "val", Kind: bat.KFloat},
		{Name: "tag", Kind: bat.KStr},
		{Name: "day", Kind: bat.KDate},
	})
	t.Append([]catalog.Row{
		{"id": int64(1), "val": 1.5, "tag": "a", "day": bat.Date(0)},
		{"id": int64(2), "val": -0.5, "tag": "b, c", "day": bat.Date(1)},
	})
	return cat
}

func TestExecDMLInsertDelete(t *testing.T) {
	cat := dmlCatalog()
	tab := cat.MustTable("sys", "m")

	// Unqualified table names default to the sys schema; literals are
	// coerced to the column kinds (3 fills a float column).
	op, n, err := execDML(cat,
		"INSERT INTO m (id, val, tag, day) VALUES (3, 3, 'x (no), wait', DATE '2008-01-15'), (-4, -2.25, '', DATE '1999-12-31')")
	if err != nil {
		t.Fatal(err)
	}
	if op != "insert" || n != 2 {
		t.Fatalf("got %s/%d, want insert/2", op, n)
	}
	if got := tab.NumRows(); got != 4 {
		t.Fatalf("NumRows = %d, want 4", got)
	}

	// Delete matching a string with an embedded comma.
	op, n, err = execDML(cat, "DELETE FROM sys.m WHERE tag = 'b, c'")
	if err != nil {
		t.Fatal(err)
	}
	if op != "delete" || n != 1 || tab.NumRows() != 3 {
		t.Fatalf("got %s/%d rows=%d, want delete/1 rows=3", op, n, tab.NumRows())
	}

	// Deleting nothing affects zero rows without error.
	if _, n, err = execDML(cat, "DELETE FROM m WHERE id = 999"); err != nil || n != 0 {
		t.Fatalf("no-match delete: n=%d err=%v", n, err)
	}

	// Float equality delete, negative literal.
	if _, n, err = execDML(cat, "DELETE FROM m WHERE val = -2.25"); err != nil || n != 1 {
		t.Fatalf("float delete: n=%d err=%v", n, err)
	}
}

func TestExecDMLErrors(t *testing.T) {
	cat := dmlCatalog()
	cases := []struct {
		sql, want string
	}{
		{"UPDATE m SET id = 1", "unsupported statement"},
		{"INSERT INTO nosuch (a) VALUES (1)", "unknown table"},
		{"INSERT INTO m (id) VALUES (1)", "must list all"},
		// A duplicated column would slip past a pure length check and
		// panic inside catalog.Append with a half-applied insert.
		{"INSERT INTO m (id, id, val, tag) VALUES (1, 2, 1.0, 'a')", "listed twice"},
		{"INSERT INTO m (id, val, tag, nope) VALUES (1, 1, 'a', 0)", "unknown column"},
		{"INSERT INTO m (id, val, tag, day) VALUES ('x', 1, 'a', DATE '2000-01-01')", "expected integer"},
		{"DELETE FROM m WHERE nope = 1", "unknown column"},
		{"DELETE FROM m WHERE id = 1 AND val = 2", "single col = literal"},
		{"DELETE FROM m WHERE tag = 'unterminated", "unterminated string"},
		{"", "empty statement"},
	}
	for _, c := range cases {
		if _, _, err := execDML(cat, c.sql); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: err = %v, want containing %q", c.sql, err, c.want)
		}
	}
}

// TestExecDeleteByKey runs the same DELETE statements against a column
// with and without a unique key index: the index probe and the typed
// scan must agree on a hit, a missing key, a second delete of the same
// (now tombstoned) row, and a key re-inserted after its delete.
func TestExecDeleteByKey(t *testing.T) {
	for _, keyed := range []bool{false, true} {
		cat := dmlCatalog()
		tab := cat.MustTable("sys", "m")
		if keyed {
			tab.DefineKeyIndex("id")
		}
		for _, c := range []struct {
			sql     string
			n, rows int
		}{
			{"DELETE FROM m WHERE id = 2", 1, 1},
			{"DELETE FROM m WHERE id = 2", 0, 1},
			{"DELETE FROM m WHERE id = 999", 0, 1},
			{"INSERT INTO m (id, val, tag, day) VALUES (2, 0, 'again', DATE '2001-01-01')", 1, 2},
			{"DELETE FROM m WHERE id = 2", 1, 1},
			{"DELETE FROM m WHERE id = 1", 1, 0},
		} {
			_, n, err := execDML(cat, c.sql)
			if err != nil || n != c.n || tab.NumRows() != c.rows {
				t.Fatalf("keyed=%v %q: n=%d rows=%d err=%v, want n=%d rows=%d", keyed, c.sql, n, tab.NumRows(), err, c.n, c.rows)
			}
		}
	}
}
