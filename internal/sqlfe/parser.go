package sqlfe

import (
	"fmt"
	"strconv"
	"strings"
)

// AST types for the supported subset:
//
//	SELECT <item> [, <item>]*
//	FROM [schema.]table
//	[WHERE <pred> [AND <pred>]*]
//	[GROUP BY col [, col]*]
//	[ORDER BY <ordinal|col> [ASC|DESC]]
//	[LIMIT n]
//
//	INSERT INTO [schema.]table (col [, col]*) VALUES (lit [, lit]*) [, (...)]*
//	DELETE FROM [schema.]table WHERE col = lit
//
// Items: col | COUNT(*) | COUNT(DISTINCT col) | SUM(col) | AVG(col) |
// MIN(col) | MAX(col). Predicates: col <op> literal, col BETWEEN a
// AND b, col [NOT] LIKE 'pat'. Literals: numbers, strings,
// DATE 'YYYY-MM-DD'.

// Statement is one parsed statement: a *Query, *Insert or *Delete.
type Statement interface{ statement() }

func (*Query) statement()  {}
func (*Insert) statement() {}
func (*Delete) statement() {}

// Insert is a parsed INSERT: the named columns and one literal tuple
// per VALUES row, untyped until Bind.
type Insert struct {
	Schema, Table string
	Cols          []string
	Rows          [][]Lit
}

// Delete is a parsed DELETE with its single col = literal predicate.
type Delete struct {
	Schema, Table string
	Col           string
	Arg           Lit
}

// Query is the parsed statement.
type Query struct {
	Items   []SelectItem
	Schema  string
	Table   string
	Preds   []Pred
	GroupBy []string
	Having  *Having
	OrderBy *OrderBy
	Limit   int // 0 = none
}

// Having is a single aggregate filter over the groups:
// HAVING <agg>(col) <op> literal. This is the paper's Q18 shape.
type Having struct {
	Agg string // "count", "sum", "avg", "min", "max"
	Col string // empty for COUNT(*)
	Op  PredOp // comparison ops only
	Arg Lit
}

// SelectItem is one projection: a plain column or an aggregate.
type SelectItem struct {
	Agg   string // "", "count", "countd", "sum", "avg", "min", "max"
	Col   string // empty for COUNT(*)
	Alias string
}

// PredOp enumerates predicate operators.
type PredOp int

// Predicate operators.
const (
	OpEq PredOp = iota
	OpLt
	OpLe
	OpGt
	OpGe
	OpNe
	OpBetween
	OpLike
	OpNotLike
)

// Lit is a literal constant captured during parsing; the compiler
// turns every Lit into a template parameter.
type Lit struct {
	Kind LitKind
	I    int64
	F    float64
	S    string
	// IsDate marks string literals written as DATE '...'.
}

// LitKind tags literal types.
type LitKind int

// Literal kinds.
const (
	LInt LitKind = iota
	LFloat
	LStr
	LDate
)

// Pred is one conjunct of the WHERE clause.
type Pred struct {
	Col  string
	Op   PredOp
	Args []Lit // 1 literal, or 2 for BETWEEN
}

// OrderBy names a sort column (by select-list alias or column) and
// direction.
type OrderBy struct {
	Col  string
	Desc bool
}

type parser struct {
	toks []token
	pos  int
}

// Parse parses a query in the supported subset.
func Parse(src string) (*Query, error) {
	return parse(src, (*parser).query)
}

// ParseStatement parses a SELECT, INSERT or DELETE statement.
func ParseStatement(src string) (Statement, error) {
	return parse(src, func(p *parser) (Statement, error) {
		switch {
		case p.at(tkKeyword, "INSERT"):
			return p.insert()
		case p.at(tkKeyword, "DELETE"):
			return p.delete()
		}
		return p.query()
	})
}

// parse lexes src and runs one statement rule over the whole input.
func parse[S any](src string, rule func(*parser) (S, error)) (S, error) {
	var zero S
	toks, err := lex(src)
	if err != nil {
		return zero, err
	}
	p := &parser{toks: toks}
	s, err := rule(p)
	if err != nil {
		return zero, err
	}
	if !p.at(tkEOF, "") {
		return zero, p.errf("trailing input")
	}
	return s, nil
}

// IsWrite reports whether src is an INSERT or DELETE, judged by its
// first word alone: the statements Engine.ExecSQL applies to the
// catalog instead of running as a query. It reads no further and does
// not allocate, so a server can route or refuse a statement before it
// runs.
func IsWrite(src string) bool {
	src = strings.TrimLeft(src, " \t\n\r")
	n := 0
	for n < len(src) && (src[n] == '_' || src[n] >= '0' && src[n] <= '9' ||
		src[n]|0x20 >= 'a' && src[n]|0x20 <= 'z') {
		n++
	}
	return strings.EqualFold(src[:n], "INSERT") || strings.EqualFold(src[:n], "DELETE")
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) at(kind tokKind, text string) bool {
	t := p.cur()
	return t.kind == kind && (text == "" || t.text == text)
}

func (p *parser) accept(kind tokKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(kind tokKind, text string) (token, error) {
	if p.at(kind, text) {
		return p.next(), nil
	}
	return token{}, p.errf("expected %q, got %q", text, p.cur().text)
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sqlfe: pos %d: %s", p.cur().pos, fmt.Sprintf(format, args...))
}

func (p *parser) query() (*Query, error) {
	if _, err := p.expect(tkKeyword, "SELECT"); err != nil {
		return nil, err
	}
	q := &Query{}
	for {
		item, err := p.selectItem()
		if err != nil {
			return nil, err
		}
		q.Items = append(q.Items, item)
		if !p.accept(tkPunct, ",") {
			break
		}
	}
	if _, err := p.expect(tkKeyword, "FROM"); err != nil {
		return nil, err
	}
	var err error
	if q.Schema, q.Table, err = p.tableName(); err != nil {
		return nil, err
	}
	if p.accept(tkKeyword, "WHERE") {
		for {
			pred, err := p.pred()
			if err != nil {
				return nil, err
			}
			q.Preds = append(q.Preds, pred)
			if !p.accept(tkKeyword, "AND") {
				break
			}
		}
	}
	if p.accept(tkKeyword, "GROUP") {
		if _, err := p.expect(tkKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			q.GroupBy = append(q.GroupBy, col)
			if !p.accept(tkPunct, ",") {
				break
			}
		}
	}
	if p.accept(tkKeyword, "HAVING") {
		if len(q.GroupBy) == 0 {
			return nil, p.errf("HAVING requires GROUP BY")
		}
		h, err := p.having()
		if err != nil {
			return nil, err
		}
		q.Having = h
	}
	if p.accept(tkKeyword, "ORDER") {
		if _, err := p.expect(tkKeyword, "BY"); err != nil {
			return nil, err
		}
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		ob := &OrderBy{Col: col}
		if p.accept(tkKeyword, "DESC") {
			ob.Desc = true
		} else {
			p.accept(tkKeyword, "ASC")
		}
		q.OrderBy = ob
	}
	if p.accept(tkKeyword, "LIMIT") {
		t, err := p.expect(tkNumber, "")
		if err != nil {
			return nil, err
		}
		n, err := strconv.Atoi(t.text)
		if err != nil || n <= 0 {
			return nil, p.errf("bad LIMIT %q", t.text)
		}
		q.Limit = n
	}
	return q, nil
}

func (p *parser) insert() (*Insert, error) {
	p.next() // INSERT
	if _, err := p.expect(tkKeyword, "INTO"); err != nil {
		return nil, err
	}
	ins := &Insert{}
	var err error
	if ins.Schema, ins.Table, err = p.tableName(); err != nil {
		return nil, err
	}
	err = p.parenList(func() error {
		col, err := p.expectIdent()
		ins.Cols = append(ins.Cols, col)
		return err
	})
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tkKeyword, "VALUES"); err != nil {
		return nil, err
	}
	err = p.commaList(func() error {
		row := make([]Lit, 0, len(ins.Cols))
		err := p.parenList(func() error {
			lit, err := p.literal()
			row = append(row, lit)
			return err
		})
		ins.Rows = append(ins.Rows, row)
		return err
	})
	if err != nil {
		return nil, err
	}
	return ins, nil
}

func (p *parser) delete() (*Delete, error) {
	p.next() // DELETE
	if _, err := p.expect(tkKeyword, "FROM"); err != nil {
		return nil, err
	}
	d := &Delete{}
	var err error
	if d.Schema, d.Table, err = p.tableName(); err != nil {
		return nil, err
	}
	if _, err := p.expect(tkKeyword, "WHERE"); err != nil {
		return nil, err
	}
	if d.Col, err = p.expectIdent(); err != nil {
		return nil, err
	}
	if _, err := p.expect(tkOp, "="); err != nil {
		return nil, err
	}
	if d.Arg, err = p.literal(); err != nil {
		return nil, err
	}
	if !p.at(tkEOF, "") {
		return nil, p.errf("DELETE supports a single col = literal predicate")
	}
	return d, nil
}

// tableName parses [schema.]table; an empty schema means "sys".
func (p *parser) tableName() (schema, table string, err error) {
	if table, err = p.expectIdent(); err != nil || !p.accept(tkPunct, ".") {
		return "", table, err
	}
	schema = table
	table, err = p.expectIdent()
	return schema, table, err
}

// commaList calls item for each element of a comma-separated list.
func (p *parser) commaList(item func() error) error {
	for {
		if err := item(); err != nil {
			return err
		}
		if !p.accept(tkPunct, ",") {
			return nil
		}
	}
}

// parenList is commaList inside parentheses.
func (p *parser) parenList(item func() error) error {
	if _, err := p.expect(tkPunct, "("); err != nil {
		return err
	}
	if err := p.commaList(item); err != nil {
		return err
	}
	_, err := p.expect(tkPunct, ")")
	return err
}

func (p *parser) expectIdent() (string, error) {
	if p.cur().kind != tkIdent {
		return "", p.errf("expected identifier, got %q", p.cur().text)
	}
	return p.next().text, nil
}

func (p *parser) selectItem() (SelectItem, error) {
	t := p.cur()
	var item SelectItem
	switch {
	case t.kind == tkKeyword && (t.text == "COUNT" || t.text == "SUM" || t.text == "AVG" || t.text == "MIN" || t.text == "MAX"):
		p.next()
		if _, err := p.expect(tkPunct, "("); err != nil {
			return item, err
		}
		item.Agg = strings.ToLower(t.text)
		switch {
		case t.text == "COUNT" && p.accept(tkPunct, "*"):
			// COUNT(*)
		case t.text == "COUNT" && p.accept(tkKeyword, "DISTINCT"):
			col, err := p.expectIdent()
			if err != nil {
				return item, err
			}
			item.Agg = "countd"
			item.Col = col
		default:
			col, err := p.expectIdent()
			if err != nil {
				return item, err
			}
			item.Col = col
		}
		if _, err := p.expect(tkPunct, ")"); err != nil {
			return item, err
		}
	case t.kind == tkIdent:
		p.next()
		item.Col = t.text
	default:
		return item, p.errf("bad select item %q", t.text)
	}
	if p.accept(tkKeyword, "AS") {
		alias, err := p.expectIdent()
		if err != nil {
			return item, err
		}
		item.Alias = alias
	}
	return item, nil
}

func (p *parser) pred() (Pred, error) {
	col, err := p.expectIdent()
	if err != nil {
		return Pred{}, err
	}
	t := p.cur()
	switch {
	case t.kind == tkOp:
		p.next()
		lit, err := p.literal()
		if err != nil {
			return Pred{}, err
		}
		op, err := opOf(t.text)
		if err != nil {
			return Pred{}, err
		}
		return Pred{Col: col, Op: op, Args: []Lit{lit}}, nil
	case t.kind == tkKeyword && t.text == "BETWEEN":
		p.next()
		lo, err := p.literal()
		if err != nil {
			return Pred{}, err
		}
		if _, err := p.expect(tkKeyword, "AND"); err != nil {
			return Pred{}, err
		}
		hi, err := p.literal()
		if err != nil {
			return Pred{}, err
		}
		return Pred{Col: col, Op: OpBetween, Args: []Lit{lo, hi}}, nil
	case t.kind == tkKeyword && t.text == "LIKE":
		p.next()
		lit, err := p.literal()
		if err != nil {
			return Pred{}, err
		}
		if lit.Kind != LStr {
			return Pred{}, p.errf("LIKE needs a string pattern")
		}
		return Pred{Col: col, Op: OpLike, Args: []Lit{lit}}, nil
	case t.kind == tkKeyword && t.text == "NOT":
		p.next()
		if _, err := p.expect(tkKeyword, "LIKE"); err != nil {
			return Pred{}, err
		}
		lit, err := p.literal()
		if err != nil {
			return Pred{}, err
		}
		if lit.Kind != LStr {
			return Pred{}, p.errf("NOT LIKE needs a string pattern")
		}
		return Pred{Col: col, Op: OpNotLike, Args: []Lit{lit}}, nil
	}
	return Pred{}, p.errf("bad predicate operator %q", t.text)
}

// having parses "<AGG>(col|*) <op> literal".
func (p *parser) having() (*Having, error) {
	t := p.cur()
	if t.kind != tkKeyword {
		return nil, p.errf("HAVING needs an aggregate")
	}
	switch t.text {
	case "COUNT", "SUM", "AVG", "MIN", "MAX":
	default:
		return nil, p.errf("HAVING aggregate %q unsupported", t.text)
	}
	p.next()
	if _, err := p.expect(tkPunct, "("); err != nil {
		return nil, err
	}
	h := &Having{Agg: strings.ToLower(t.text)}
	if t.text == "COUNT" && p.accept(tkPunct, "*") {
		// COUNT(*)
	} else {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		h.Col = col
	}
	if _, err := p.expect(tkPunct, ")"); err != nil {
		return nil, err
	}
	opTok := p.cur()
	if opTok.kind != tkOp {
		return nil, p.errf("HAVING needs a comparison")
	}
	p.next()
	op, err := opOf(opTok.text)
	if err != nil {
		return nil, err
	}
	if op == OpNe {
		return nil, p.errf("HAVING <> unsupported")
	}
	h.Op = op
	lit, err := p.literal()
	if err != nil {
		return nil, err
	}
	h.Arg = lit
	return h, nil
}

func opOf(s string) (PredOp, error) {
	switch s {
	case "=":
		return OpEq, nil
	case "<":
		return OpLt, nil
	case "<=":
		return OpLe, nil
	case ">":
		return OpGt, nil
	case ">=":
		return OpGe, nil
	case "<>":
		return OpNe, nil
	}
	return 0, fmt.Errorf("sqlfe: unsupported operator %q", s)
}

func (p *parser) literal() (Lit, error) {
	t := p.cur()
	switch {
	case t.kind == tkNumber:
		lit := Lit{Kind: LInt}
		var err error
		if strings.ContainsRune(t.text, '.') {
			lit.Kind = LFloat
			lit.F, err = strconv.ParseFloat(t.text, 64)
		} else {
			lit.I, err = strconv.ParseInt(t.text, 10, 64)
		}
		if err != nil {
			return Lit{}, p.errf("number %s out of range", t.text)
		}
		p.next()
		return lit, nil
	case t.kind == tkString:
		p.next()
		return Lit{Kind: LStr, S: t.text}, nil
	case t.kind == tkKeyword && t.text == "DATE":
		p.next()
		if p.cur().kind != tkString {
			return Lit{}, p.errf("DATE needs a quoted literal")
		}
		s := p.next().text
		return Lit{Kind: LDate, S: s}, nil
	}
	return Lit{}, p.errf("bad literal %q", t.text)
}

// Shape returns the query text with all literals replaced by
// placeholders — the key under which compiled templates are cached, so
// instances differing only in constants share one template (§2.2).
func (q *Query) Shape() string {
	var sb strings.Builder
	for _, it := range q.Items {
		fmt.Fprintf(&sb, "%s(%s);", it.Agg, it.Col)
	}
	fmt.Fprintf(&sb, "FROM %s.%s;", q.Schema, q.Table)
	for _, p := range q.Preds {
		fmt.Fprintf(&sb, "%s#%d?;", p.Col, p.Op)
	}
	fmt.Fprintf(&sb, "G%v", q.GroupBy)
	if q.Having != nil {
		fmt.Fprintf(&sb, "H%s(%s)#%d?;", q.Having.Agg, q.Having.Col, q.Having.Op)
	}
	if q.OrderBy != nil {
		fmt.Fprintf(&sb, "O%s/%v", q.OrderBy.Col, q.OrderBy.Desc)
	}
	if q.Limit > 0 {
		sb.WriteString("L?")
	}
	return sb.String()
}
