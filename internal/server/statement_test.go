package server

import (
	"net/http"
	"strings"
	"testing"

	"repro"
	"repro/internal/bat"
	"repro/internal/catalog"
)

// execDML commits a write statement straight to the catalog through a
// fresh engine, bypassing the server (its listeners still see the
// commit).
func execDML(cat *catalog.Catalog, src string) (op string, affected int, err error) {
	res, err := repro.NewEngine(cat).ExecSQL(src)
	if err != nil {
		return "", 0, err
	}
	return res.Op, res.RowsAffected, nil
}

// TestPreparedCacheSharesNormalizedShapes: distinct SQL texts that
// normalize to one shape are two statement-cache texts over one
// template, a repeated text is a statement-cache hit, and /stats shows
// both levels.
func TestPreparedCacheSharesNormalizedShapes(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, sql := range []string{
		"SELECT COUNT(*) FROM sky.photoobj WHERE ra > 100 AND mode = 1",
		"SELECT COUNT(*) FROM sky.photoobj WHERE mode = 1 AND ra > 100",
		"SELECT COUNT(*) FROM sky.photoobj WHERE ra > 100 AND mode = 1",
	} {
		if _, code := postQuery(t, ts.URL, sql); code != http.StatusOK {
			t.Fatalf("%q: status %d", sql, code)
		}
	}
	st := getStats(t, ts.URL)
	if st.Server.PreparedTexts != 2 || st.Engine.TemplateCache.Size != 1 {
		t.Fatalf("texts/shapes = %d/%d, want 2/1", st.Server.PreparedTexts, st.Engine.TemplateCache.Size)
	}
	if st.Server.PreparedHits != 1 || st.Server.PreparedMisses != 2 {
		t.Fatalf("hits/misses = %d/%d, want 1/2", st.Server.PreparedHits, st.Server.PreparedMisses)
	}
}

// TestEndpointsRefuseOtherStatements: /query refuses writes and /exec
// refuses queries, each with a 400 and before the statement runs; a
// write that fails to bind (an impossible date) changes nothing.
func TestEndpointsRefuseOtherStatements(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	docs := s.Engine().Catalog().MustTable("sky", "dbobjects")
	rows := docs.NumRows()

	const insert = "INSERT INTO sky.dbobjects (name, type, description) VALUES ('refused', 'U', 'x')"
	if _, code := postQuery(t, ts.URL, insert); code != http.StatusBadRequest {
		t.Fatalf("/query INSERT: status %d, want 400", code)
	}
	if _, code := postQuery(t, ts.URL, "  delete FROM sky.dbobjects WHERE name = 'dbobj_001'"); code != http.StatusBadRequest {
		t.Fatalf("/query DELETE: status %d, want 400", code)
	}
	if _, code := postExec(t, ts.URL, "SELECT COUNT(*) FROM sky.dbobjects WHERE type = 'U'"); code != http.StatusBadRequest {
		t.Fatalf("/exec SELECT: status %d, want 400", code)
	}
	if got := docs.NumRows(); got != rows {
		t.Fatalf("refused statements changed dbobjects: %d rows, want %d", got, rows)
	}

	dated := s.Engine().Catalog().CreateTable("sys", "dated", []catalog.ColDef{
		{Name: "id", Kind: bat.KInt},
		{Name: "day", Kind: bat.KDate},
	})
	if _, code := postExec(t, ts.URL, "INSERT INTO sys.dated (id, day) VALUES (1, DATE '1996-02-14'), (2, DATE '1996-13-45')"); code != http.StatusBadRequest {
		t.Fatalf("/exec impossible date: status %d, want 400", code)
	}
	if n := dated.NumRows(); n != 0 {
		t.Fatalf("impossible date stored %d rows", n)
	}
	if res, code := postExec(t, ts.URL, "INSERT INTO sys.dated (id, day) VALUES (1, DATE '1996-02-14')"); code != http.StatusOK || res.RowsAffected != 1 {
		t.Fatalf("valid date: status %d, %+v", code, res)
	}
	st := getStats(t, ts.URL)
	if st.Server.Queries != 2 || st.Server.Execs != 3 || st.Server.Errors != 4 {
		t.Fatalf("queries/execs/errors = %d/%d/%d, want 2/3/4", st.Server.Queries, st.Server.Execs, st.Server.Errors)
	}
}

// TestQueryTraceStages: a traced first compile reports its front-end
// stages; a repeat is a statement-cache hit with no optimize work.
func TestQueryTraceStages(t *testing.T) {
	_, ts := newTracedServer(t, Config{})
	const sql = "SELECT COUNT(*) FROM sky.photoobj WHERE ra BETWEEN 195.0 AND 197.5 AND mode = 1"
	first := postQueryTraced(t, ts.URL, sql).Trace.Stages
	if first.Parse <= 0 || first.Optimize <= 0 {
		t.Fatalf("first compile stages parse=%v optimize=%v, want both > 0", first.Parse, first.Optimize)
	}
	if again := postQueryTraced(t, ts.URL, sql).Trace.Stages; again.Optimize != 0 {
		t.Fatalf("repeat optimize = %v, want 0", again.Optimize)
	}
}

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
	tab := cat.MustTable("sys", "m")
	cases := []struct {
		sql, want string
	}{
		{"UPDATE m SET id = 1", `expected "SELECT"`},
		{"INSERT INTO nosuch (a) VALUES (1)", "unknown table"},
		{"INSERT INTO m (id) VALUES (1)", "must list all"},
		// A duplicated column would slip past a pure length check and
		// reach Table.Append with a row missing a column.
		{"INSERT INTO m (id, id, val, tag) VALUES (1, 2, 1.0, 'a')", "listed twice"},
		{"INSERT INTO m (id, val, tag, nope) VALUES (1, 1, 'a', 0)", "unknown column"},
		{"INSERT INTO m (id, val, tag, day) VALUES ('x', 1, 'a', DATE '2000-01-01')", "integer literal"},
		{"DELETE FROM m WHERE nope = 1", "unknown column"},
		{"DELETE FROM m WHERE id = 1 AND val = 2", "single col = literal"},
		{"DELETE FROM m WHERE tag = 'unterminated", "unterminated string"},
		{"", `expected "SELECT"`},
	}
	for _, c := range cases {
		if _, _, err := execDML(cat, c.sql); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: err = %v, want containing %q", c.sql, err, c.want)
		}
	}
	if got := tab.NumRows(); got != 2 {
		t.Fatalf("failed statements changed the table: NumRows = %d, want 2", got)
	}
}

// TestExecDeleteByKey runs the same DELETE statements against a column
// with and without a unique key index: the index probe and the
// equality filter must agree on a hit, a missing key, a second delete
// of the same (now tombstoned) row, and a key re-inserted after its
// delete.
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
