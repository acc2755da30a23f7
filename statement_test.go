package repro

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bat"
	"repro/internal/catalog"
)

func statementCatalog() *catalog.Catalog {
	cat := NewCatalog()
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

// TestExecSQLStatements runs one statement sequence through
// Engine.ExecSQL against a column with and without a unique key index:
// the index probe and the equality filter must agree on a hit, a
// missing key, a second delete of a tombstoned row and a key
// re-inserted after its delete; a failed statement changes nothing.
func TestExecSQLStatements(t *testing.T) {
	for _, keyed := range []bool{false, true} {
		cat := statementCatalog()
		tab := cat.MustTable("sys", "m")
		if keyed {
			tab.DefineKeyIndex("id")
		}
		eng := NewEngine(cat)
		sess := eng.NewSession()
		for _, c := range []struct {
			sql string
			op  string // "" for a query
			n   int    // rows affected, or a query's COUNT(*)
			// rows is the table's row count afterwards; err, when set,
			// is a substring of the statement's error.
			rows int
			err  string
		}{
			// Unqualified names are in sys; 3 fills a float column.
			{sql: "INSERT INTO m (id, val, tag, day) VALUES (3, 3, 'x (no), wait', DATE '2008-01-15'), (-4, -2.25, '', DATE '1999-12-31')", op: "insert", n: 2, rows: 4},
			{sql: "DELETE FROM sys.m WHERE tag = 'b, c'", op: "delete", n: 1, rows: 3},
			{sql: "DELETE FROM m WHERE id = 2", op: "delete", n: 0, rows: 3},
			{sql: "DELETE FROM m WHERE id = 999", op: "delete", n: 0, rows: 3},
			{sql: "DELETE FROM m WHERE val = -2.25", op: "delete", n: 1, rows: 2},
			// '' is an escaped quote, in VALUES as in WHERE.
			{sql: "INSERT INTO m (id, val, tag, day) VALUES (2, 0, 'O''Brien', DATE '2001-01-01')", op: "insert", n: 1, rows: 3},
			{sql: "SELECT COUNT(*) FROM m WHERE tag = 'O''Brien'", n: 1, rows: 3},
			{sql: "DELETE FROM m WHERE id = 2", op: "delete", n: 1, rows: 2},
			{sql: "DELETE FROM m WHERE id = 1", op: "delete", n: 1, rows: 1},

			{sql: "UPDATE m SET id = 1", rows: 1, err: `expected "SELECT"`},
			{sql: "", rows: 1, err: `expected "SELECT"`},
			{sql: "INSERT INTO nosuch (a) VALUES (1)", rows: 1, err: "unknown table"},
			{sql: "INSERT INTO m (id) VALUES (1)", rows: 1, err: "must list all"},
			// A duplicated column would slip past a pure length check
			// and reach Table.Append with a row missing a column.
			{sql: "INSERT INTO m (id, id, val, tag) VALUES (1, 2, 1.0, 'a')", rows: 1, err: "listed twice"},
			{sql: "INSERT INTO m (id, val, tag, nope) VALUES (1, 1, 'a', 0)", rows: 1, err: "unknown column"},
			{sql: "INSERT INTO m (id, val, tag, day) VALUES ('x', 1, 'a', DATE '2000-01-01')", rows: 1, err: "integer literal"},
			{sql: "INSERT INTO m (id, val, tag, day) VALUES (1, 1, 'a')", rows: 1, err: "3 values for 4 columns"},
			{sql: "INSERT INTO m (id, val, tag, day) VALUES (9223372036854775808, 1, 'a', DATE '2000-01-01')", rows: 1, err: "out of range"},
			// An impossible date fails the whole statement, not just its row.
			{sql: "INSERT INTO m (id, val, tag, day) VALUES (5, 1, 'a', DATE '2000-01-01'), (6, 1, 'b', DATE '1996-13-45')", rows: 1, err: "bad date"},
			{sql: "DELETE FROM m WHERE nope = 1", rows: 1, err: "unknown column"},
			{sql: "DELETE FROM m WHERE id = 1 AND val = 2", rows: 1, err: "single col = literal"},
			{sql: "DELETE FROM m WHERE tag = 'unterminated", rows: 1, err: "unterminated string"},
		} {
			res, err := sess.ExecSQL(c.sql)
			if c.err != "" {
				if err == nil || !strings.Contains(err.Error(), c.err) {
					t.Fatalf("keyed=%v %q: err = %v, want containing %q", keyed, c.sql, err, c.err)
				}
			} else if err != nil {
				t.Fatalf("keyed=%v %q: %v", keyed, c.sql, err)
			} else {
				n := res.RowsAffected
				if c.op == "" {
					n = int(res.Results[0].Val.I)
				}
				if res.Op != c.op || n != c.n {
					t.Fatalf("keyed=%v %q: got %q/%d, want %q/%d", keyed, c.sql, res.Op, n, c.op, c.n)
				}
			}
			if got := tab.NumRows(); got != c.rows {
				t.Fatalf("keyed=%v %q: NumRows = %d, want %d", keyed, c.sql, got, c.rows)
			}
		}
		// Writes count neither as session queries nor as cached texts.
		if st := sess.Stats(); st.Queries != 1 {
			t.Fatalf("keyed=%v: session counted %d queries, want 1", keyed, st.Queries)
		}
		if st := eng.StatsSnapshot().Statements; st.Texts != 1 || st.Misses != 1 {
			t.Fatalf("keyed=%v: statement cache %+v, want the one SELECT", keyed, st)
		}
	}
}

// TestExecSQLInsertLiteralsExact inserts the literal spellings the
// benchmark's write generator emits — objids near 2^58, two-decimal
// (often negative) coordinates, four-decimal magnitudes — and checks
// the stored values are bit-identical to strconv's parse of the same
// text: the harness's shadow catalog relies on it.
func TestExecSQLInsertLiteralsExact(t *testing.T) {
	cat := NewCatalog()
	tab := cat.CreateTable("sky", "g", []catalog.ColDef{
		{Name: "objid", Kind: bat.KInt},
		{Name: "dec", Kind: bat.KFloat},
		{Name: "mag", Kind: bat.KFloat},
	})
	eng := NewEngine(cat)
	rng := rand.New(rand.NewSource(1))
	var ids []int64
	var decs, mags []float64
	for i := 0; i < 300; i++ {
		id := int64(0x0500000000000000) + int64(rng.Intn(4)+1)*100_000_000 + int64(i)
		dec := strconv.FormatFloat(float64(rng.Intn(18001)-9000)/100, 'f', 2, 64)
		mag := strconv.FormatFloat(10+math.Floor(rng.Float64()*150000)/10000, 'f', 4, 64)
		if _, err := eng.ExecSQL(fmt.Sprintf("INSERT INTO sky.g (objid, dec, mag) VALUES (%d, %s, %s)", id, dec, mag)); err != nil {
			t.Fatal(err)
		}
		d, _ := strconv.ParseFloat(dec, 64)
		m, _ := strconv.ParseFloat(mag, 64)
		ids, decs, mags = append(ids, id), append(decs, d), append(mags, m)
	}
	gotIDs := tab.MustColumn("objid").Bind().Tail.(*bat.Ints).V
	gotDecs := tab.MustColumn("dec").Bind().Tail.(*bat.Floats).V
	gotMags := tab.MustColumn("mag").Bind().Tail.(*bat.Floats).V
	for i := range ids {
		if gotIDs[i] != ids[i] ||
			math.Float64bits(gotDecs[i]) != math.Float64bits(decs[i]) ||
			math.Float64bits(gotMags[i]) != math.Float64bits(mags[i]) {
			t.Fatalf("row %d: stored (%d, %v, %v), want (%d, %v, %v)",
				i, gotIDs[i], gotDecs[i], gotMags[i], ids[i], decs[i], mags[i])
		}
	}
}
