package server

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/algebra"
	"repro/internal/bat"
	"repro/internal/catalog"
)

// execDML parses and executes the /exec statement subset:
//
//	INSERT INTO [schema.]table (c1, c2, ...) VALUES (v1, v2, ...)[, (...)]*
//	DELETE FROM [schema.]table WHERE col = literal
//
// Literals: integers, floats, 'strings', DATE 'YYYY-MM-DD', TRUE and
// FALSE. Values are coerced to the column's kind (an integer literal
// fills a float column). The statements commit through the catalog's
// regular DML path, so the recycler's OnBeforeUpdate/OnUpdate
// listeners fire exactly as for in-process updates — remote writers
// drive the §6 invalidation/propagation machinery.
func execDML(cat *catalog.Catalog, src string) (op string, affected int, err error) {
	toks, err := tokenizeDML(src)
	if err != nil {
		return "", 0, err
	}
	if len(toks) == 0 {
		return "", 0, fmt.Errorf("empty statement")
	}
	switch strings.ToUpper(toks[0]) {
	case "INSERT":
		n, err := execInsert(cat, toks)
		return "insert", n, err
	case "DELETE":
		n, err := execDelete(cat, toks)
		return "delete", n, err
	}
	return "", 0, fmt.Errorf("unsupported statement %q (exec accepts INSERT and DELETE; use /query for SELECT)", toks[0])
}

// tokenizeDML splits the statement into words, punctuation and
// 'single-quoted' string tokens (kept with their quotes so literal
// parsing can tell strings from identifiers).
func tokenizeDML(src string) ([]string, error) {
	var toks []string
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '(' || c == ')' || c == ',' || c == '=' || c == '.':
			toks = append(toks, string(c))
			i++
		case c == '\'':
			j := i + 1
			for j < len(src) && src[j] != '\'' {
				j++
			}
			if j >= len(src) {
				return nil, fmt.Errorf("unterminated string literal")
			}
			toks = append(toks, src[i:j+1])
			i = j + 1
		default:
			j := i
			for j < len(src) && !strings.ContainsAny(string(src[j]), " \t\n\r(),='.") {
				j++
			}
			// Allow dots inside numbers (1.5, -0.5) but split identifier
			// dots (schema.table) — a numeric token keeps its dot.
			if j < len(src) && src[j] == '.' && isNumeric(src[i:j]) {
				k := j + 1
				for k < len(src) && src[k] >= '0' && src[k] <= '9' {
					k++
				}
				j = k
			}
			toks = append(toks, src[i:j])
			i = j
		}
	}
	return toks, nil
}

// isNumeric reports whether s is an optional sign followed by digits.
func isNumeric(s string) bool {
	if len(s) > 0 && (s[0] == '-' || s[0] == '+') {
		s = s[1:]
	}
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

// dmlParser is a cursor over the token stream.
type dmlParser struct {
	toks []string
	pos  int
}

func (p *dmlParser) peek() string {
	if p.pos >= len(p.toks) {
		return ""
	}
	return p.toks[p.pos]
}

func (p *dmlParser) next() string {
	t := p.peek()
	p.pos++
	return t
}

func (p *dmlParser) expect(word string) error {
	t := p.next()
	if !strings.EqualFold(t, word) {
		return fmt.Errorf("expected %q, got %q", word, t)
	}
	return nil
}

// tableRef parses [schema.]table, defaulting the schema to "sys"
// (the TPC-H schema) when unqualified.
func (p *dmlParser) tableRef(cat *catalog.Catalog) (*catalog.Table, error) {
	first := p.next()
	if first == "" {
		return nil, fmt.Errorf("expected table name")
	}
	schema, name := "sys", first
	if p.peek() == "." {
		p.next()
		schema, name = first, p.next()
	}
	t := cat.Table(schema, name)
	if t == nil {
		return nil, fmt.Errorf("unknown table %s.%s", schema, name)
	}
	return t, nil
}

func execInsert(cat *catalog.Catalog, toks []string) (int, error) {
	p := &dmlParser{toks: toks}
	if err := p.expect("INSERT"); err != nil {
		return 0, err
	}
	if err := p.expect("INTO"); err != nil {
		return 0, err
	}
	t, err := p.tableRef(cat)
	if err != nil {
		return 0, err
	}
	if err := p.expect("("); err != nil {
		return 0, err
	}
	var cols []string
	seen := make(map[string]bool)
	for {
		c := p.next()
		if c == "" {
			return 0, fmt.Errorf("unterminated column list")
		}
		if t.Column(c) == nil {
			return 0, fmt.Errorf("unknown column %s.%s", t.QName(), c)
		}
		if seen[c] {
			return 0, fmt.Errorf("column %s listed twice", c)
		}
		seen[c] = true
		cols = append(cols, c)
		sep := p.next()
		if sep == ")" {
			break
		}
		if sep != "," {
			return 0, fmt.Errorf("expected , or ) in column list, got %q", sep)
		}
	}
	// Distinct + all-known + full count together guarantee every table
	// column is present: catalog.Append reads each column from every
	// row and must never see a missing one.
	if len(cols) != len(t.Cols) {
		return 0, fmt.Errorf("INSERT must list all %d columns of %s (got %d)", len(t.Cols), t.QName(), len(cols))
	}
	if err := p.expect("VALUES"); err != nil {
		return 0, err
	}
	var rows []catalog.Row
	for {
		if err := p.expect("("); err != nil {
			return 0, err
		}
		row := catalog.Row{}
		for i, col := range cols {
			if i > 0 {
				if err := p.expect(","); err != nil {
					return 0, err
				}
			}
			v, err := parseLiteral(p, t.MustColumn(col).KindOf)
			if err != nil {
				return 0, fmt.Errorf("column %s: %w", col, err)
			}
			row[col] = v
		}
		if err := p.expect(")"); err != nil {
			return 0, err
		}
		rows = append(rows, row)
		if p.peek() != "," {
			break
		}
		p.next()
	}
	if p.pos != len(p.toks) {
		return 0, fmt.Errorf("trailing tokens after VALUES list: %q", p.peek())
	}
	t.Append(rows)
	return len(rows), nil
}

func execDelete(cat *catalog.Catalog, toks []string) (int, error) {
	p := &dmlParser{toks: toks}
	if err := p.expect("DELETE"); err != nil {
		return 0, err
	}
	if err := p.expect("FROM"); err != nil {
		return 0, err
	}
	t, err := p.tableRef(cat)
	if err != nil {
		return 0, err
	}
	if err := p.expect("WHERE"); err != nil {
		return 0, err
	}
	colName := p.next()
	col := t.Column(colName)
	if col == nil {
		return 0, fmt.Errorf("unknown column %s.%s", t.QName(), colName)
	}
	if err := p.expect("="); err != nil {
		return 0, err
	}
	want, err := parseLiteral(p, col.KindOf)
	if err != nil {
		return 0, err
	}
	if p.pos != len(p.toks) {
		return 0, fmt.Errorf("DELETE supports a single col = literal predicate; trailing %q", p.peek())
	}
	oids := matchingOids(t, col, want)
	if len(oids) == 0 {
		return 0, nil
	}
	t.Delete(oids)
	return len(oids), nil
}

// matchingOids returns the live rows whose col equals want: one probe
// when col carries a unique key index, a typed scan of the bound
// column otherwise. Bind snapshots the live rows and LookupKey skips
// tombstones, so a deleted row is never deleted again.
func matchingOids(t *catalog.Table, col *catalog.Column, want any) []bat.Oid {
	if key, isInt := want.(int64); isInt && t.HasKeyIndex(col.Name) {
		if oid, ok := t.LookupKey(col.Name, key); ok {
			return []bat.Oid{oid}
		}
		return nil
	}
	b := col.Bind()
	switch tail := b.Tail.(type) {
	case *bat.Ints:
		return headsWhere(b.Head, tail.V, want.(int64))
	case *bat.Floats:
		return headsWhere(b.Head, tail.V, want.(float64))
	case *bat.Strings:
		return headsWhere(b.Head, tail.V, want.(string))
	case *bat.Dates:
		return headsWhere(b.Head, tail.V, want.(bat.Date))
	case *bat.Bools:
		return headsWhere(b.Head, tail.V, want.(bool))
	case *bat.Oids:
		return headsWhere(b.Head, tail.V, want.(bat.Oid))
	}
	return nil
}

func headsWhere[T comparable](head bat.Vector, vals []T, want T) []bat.Oid {
	var oids []bat.Oid
	for i, v := range vals {
		if v == want {
			oids = append(oids, bat.OidAt(head, i))
		}
	}
	return oids
}

// parseLiteral consumes one literal and coerces it to the column kind.
func parseLiteral(p *dmlParser, kind bat.Kind) (any, error) {
	tok := p.next()
	if tok == "" {
		return nil, fmt.Errorf("expected literal")
	}
	if strings.EqualFold(tok, "DATE") {
		tok = p.next() // the quoted date follows
	}
	switch kind {
	case bat.KInt:
		v, err := strconv.ParseInt(tok, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("expected integer, got %q", tok)
		}
		return v, nil
	case bat.KFloat:
		v, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			return nil, fmt.Errorf("expected number, got %q", tok)
		}
		return v, nil
	case bat.KStr:
		s, ok := unquote(tok)
		if !ok {
			return nil, fmt.Errorf("expected 'string', got %q", tok)
		}
		return s, nil
	case bat.KDate:
		s, ok := unquote(tok)
		if !ok {
			return nil, fmt.Errorf("expected DATE 'YYYY-MM-DD', got %q", tok)
		}
		var y, m, d int
		if _, err := fmt.Sscanf(s, "%d-%d-%d", &y, &m, &d); err != nil {
			return nil, fmt.Errorf("bad date %q", s)
		}
		return bat.Date(algebra.DaysFromCivil(y, m, d)), nil
	case bat.KBool:
		switch strings.ToUpper(tok) {
		case "TRUE":
			return true, nil
		case "FALSE":
			return false, nil
		}
		return nil, fmt.Errorf("expected TRUE or FALSE, got %q", tok)
	case bat.KOid:
		v, err := strconv.ParseUint(tok, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("expected oid, got %q", tok)
		}
		return bat.Oid(v), nil
	}
	return nil, fmt.Errorf("unsupported column kind")
}

func unquote(tok string) (string, bool) {
	if len(tok) >= 2 && tok[0] == '\'' && tok[len(tok)-1] == '\'' {
		return tok[1 : len(tok)-1], true
	}
	return "", false
}
