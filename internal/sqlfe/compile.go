package sqlfe

import (
	"fmt"
	"slices"
	"strconv"

	"repro/internal/algebra"
	"repro/internal/bat"
	"repro/internal/catalog"
	"repro/internal/mal"
	"repro/internal/opt"
)

// Compile translates a parsed query into an optimizer-marked template
// plus the parameter values of this instance, under the default
// optimizer pipeline. All literals become template parameters in a
// deterministic order (predicate literals left to right, then LIMIT),
// so re-compiling a query with the same shape yields an identical plan
// ready for template caching.
func Compile(cat *catalog.Catalog, q *Query) (*mal.Template, []mal.Value, error) {
	return CompileOpt(cat, q, opt.Options{})
}

// CompileOpt is Compile with an explicit optimizer configuration (pass
// gating and the pass-statistics collector the front end threads
// through every compile).
func CompileOpt(cat *catalog.Catalog, q *Query, opts opt.Options) (*mal.Template, []mal.Value, error) {
	tbl, err := table(cat, q.Schema, q.Table)
	if err != nil {
		return nil, nil, err
	}

	c := &compiler{
		b:   mal.NewBuilder("sql:" + q.Shape()),
		cat: cat,
		tbl: tbl,
	}
	// Declare parameters first (builder requirement): walk the
	// literal positions.
	var params []mal.Value
	for pi := range q.Preds {
		p := &q.Preds[pi]
		col, err := column(tbl, p.Col)
		if err != nil {
			return nil, nil, err
		}
		for _, lit := range p.Args {
			kind, val, err := paramFor(col.KindOf, lit)
			if err != nil {
				return nil, nil, fmt.Errorf("sqlfe: predicate on %s: %w", p.Col, err)
			}
			name := fmt.Sprintf("A%d", len(params))
			c.paramArgs = append(c.paramArgs, c.b.Param(name, kind))
			params = append(params, val)
		}
	}
	if q.Having != nil {
		kind, val, err := havingParam(tbl, q.Having)
		if err != nil {
			return nil, nil, err
		}
		c.havingArg = c.b.Param(fmt.Sprintf("A%d", len(params)), kind)
		params = append(params, val)
	}
	if q.Limit > 0 {
		c.limitArg = c.b.Param(fmt.Sprintf("A%d", len(params)), mal.VInt)
		params = append(params, mal.IntV(int64(q.Limit)))
	}

	if err := c.emit(q); err != nil {
		return nil, nil, err
	}
	tmpl := opt.Optimize(c.b.Freeze(), opts)
	return tmpl, params, nil
}

// ExtractParams types this instance's literal values against the
// catalog WITHOUT building a plan — the template-cache hit path: the
// cached template already exists, only the parameter vector differs
// per instance. The walk order must stay in lockstep with CompileOpt's
// parameter declarations (predicate literals in predicate order, then
// HAVING, then LIMIT); q must already be normalized when the cached
// template was compiled from a normalized query.
func ExtractParams(cat *catalog.Catalog, q *Query) ([]mal.Value, error) {
	tbl, err := table(cat, q.Schema, q.Table)
	if err != nil {
		return nil, err
	}
	var params []mal.Value
	for pi := range q.Preds {
		p := &q.Preds[pi]
		col, err := column(tbl, p.Col)
		if err != nil {
			return nil, err
		}
		for _, lit := range p.Args {
			_, val, err := paramFor(col.KindOf, lit)
			if err != nil {
				return nil, fmt.Errorf("sqlfe: predicate on %s: %w", p.Col, err)
			}
			params = append(params, val)
		}
	}
	if q.Having != nil {
		_, val, err := havingParam(tbl, q.Having)
		if err != nil {
			return nil, err
		}
		params = append(params, val)
	}
	if q.Limit > 0 {
		params = append(params, mal.IntV(int64(q.Limit)))
	}
	return params, nil
}

// table resolves [schema.]name; an unqualified name is in "sys" (the
// TPC-H schema).
func table(cat *catalog.Catalog, schema, name string) (*catalog.Table, error) {
	if schema == "" {
		schema = "sys"
	}
	if t := cat.Table(schema, name); t != nil {
		return t, nil
	}
	return nil, fmt.Errorf("sqlfe: unknown table %s.%s", schema, name)
}

// column resolves a column of t.
func column(t *catalog.Table, name string) (*catalog.Column, error) {
	if c := t.Column(name); c != nil {
		return c, nil
	}
	return nil, fmt.Errorf("sqlfe: unknown column %s.%s", t.QName(), name)
}

// Bind resolves the INSERT against the catalog: the target table and
// its rows column by column, one vector per column of the table in its
// order, each literal typed to its column exactly as a query parameter
// is (paramFor). The column list must name every column of the table
// once — together with the tuple-length check this guarantees the
// vectors are what Table.AppendColumns takes.
func (ins *Insert) Bind(cat *catalog.Catalog) (*catalog.Table, []bat.Vector, error) {
	t, err := table(cat, ins.Schema, ins.Table)
	if err != nil {
		return nil, nil, err
	}
	cols := make([]*catalog.Column, len(ins.Cols))
	for i, name := range ins.Cols {
		if cols[i], err = column(t, name); err != nil {
			return nil, nil, err
		}
		if slices.Contains(ins.Cols[:i], name) {
			return nil, nil, fmt.Errorf("sqlfe: column %s listed twice", name)
		}
	}
	if len(cols) != len(t.Cols) {
		return nil, nil, fmt.Errorf("sqlfe: INSERT must list all %d columns of %s (got %d)", len(t.Cols), t.QName(), len(cols))
	}
	for r, lits := range ins.Rows {
		if len(lits) != len(cols) {
			return nil, nil, fmt.Errorf("sqlfe: VALUES row %d has %d values for %d columns", r+1, len(lits), len(cols))
		}
	}
	vecs := make([]bat.Vector, len(t.Cols))
	for i, c := range cols {
		v, err := ins.column(i, c.KindOf)
		if err != nil {
			return nil, nil, fmt.Errorf("sqlfe: column %s: %w", c.Name, err)
		}
		vecs[slices.Index(t.Cols, c)] = v
	}
	return t, vecs, nil
}

// column returns the i-th literal of every VALUES tuple as a vector of
// kind.
func (ins *Insert) column(i int, kind bat.Kind) (bat.Vector, error) {
	switch kind {
	case bat.KInt:
		v, err := literals(ins.Rows, i, kind, func(v mal.Value) int64 { return v.I })
		return bat.NewInts(v), err
	case bat.KFloat:
		v, err := literals(ins.Rows, i, kind, func(v mal.Value) float64 { return v.F })
		return bat.NewFloats(v), err
	case bat.KStr:
		v, err := literals(ins.Rows, i, kind, func(v mal.Value) string { return v.S })
		return bat.NewStrings(v), err
	case bat.KDate:
		v, err := literals(ins.Rows, i, kind, func(v mal.Value) bat.Date { return v.D })
		return bat.NewDates(v), err
	}
	return nil, fmt.Errorf("unsupported column kind %v", kind)
}

// literals types the i-th literal of every tuple to kind (paramFor)
// and returns field of each.
func literals[T any](rows [][]Lit, i int, kind bat.Kind, field func(mal.Value) T) ([]T, error) {
	out := make([]T, len(rows))
	for r, lits := range rows {
		_, v, err := paramFor(kind, lits[i])
		if err != nil {
			return nil, err
		}
		out[r] = field(v)
	}
	return out, nil
}

// Bind resolves the DELETE against the catalog: the table, the
// predicate column and its literal typed to the column.
func (d *Delete) Bind(cat *catalog.Catalog) (*catalog.Table, *catalog.Column, mal.Value, error) {
	t, err := table(cat, d.Schema, d.Table)
	if err != nil {
		return nil, nil, mal.Value{}, err
	}
	col, err := column(t, d.Col)
	if err != nil {
		return nil, nil, mal.Value{}, err
	}
	_, v, err := paramFor(col.KindOf, d.Arg)
	if err != nil {
		return nil, nil, mal.Value{}, fmt.Errorf("sqlfe: predicate on %s: %w", d.Col, err)
	}
	return t, col, v, nil
}

// paramFor types a literal against its column kind, promoting ints to
// floats/dates where the column requires it.
func paramFor(colKind bat.Kind, lit Lit) (mal.ValueKind, mal.Value, error) {
	switch colKind {
	case bat.KInt:
		if lit.Kind != LInt {
			return 0, mal.Value{}, fmt.Errorf("int column needs integer literal")
		}
		return mal.VInt, mal.IntV(lit.I), nil
	case bat.KFloat:
		switch lit.Kind {
		case LFloat:
			return mal.VFloat, mal.FloatV(lit.F), nil
		case LInt:
			return mal.VFloat, mal.FloatV(float64(lit.I)), nil
		}
		return 0, mal.Value{}, fmt.Errorf("float column needs numeric literal")
	case bat.KStr:
		if lit.Kind != LStr {
			return 0, mal.Value{}, fmt.Errorf("string column needs string literal")
		}
		return mal.VStr, mal.StrV(lit.S), nil
	case bat.KDate:
		if lit.Kind != LDate && lit.Kind != LStr {
			return 0, mal.Value{}, fmt.Errorf("date column needs DATE literal")
		}
		d, err := parseISODate(lit.S)
		if err != nil {
			return 0, mal.Value{}, err
		}
		return mal.VDate, mal.DateV(d), nil
	}
	return 0, mal.Value{}, fmt.Errorf("unsupported column kind %v", colKind)
}

// splitISODate parses a (possibly unpadded) ISO date literal:
// "2000-01-01" and "2000-1-1" both name the same day. Accepting the
// sloppy spellings — and keying everything downstream on the parsed
// value — is the date-form half of literal normalization: two texts
// differing only in zero padding share one template and one pool
// signature.
func splitISODate(s string) (y, m, d int, err error) {
	var parts [3]int
	start, idx := 0, 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '-' {
			if idx >= 3 || i == start {
				return 0, 0, 0, fmt.Errorf("bad date %q", s)
			}
			n, convErr := strconv.Atoi(s[start:i])
			if convErr != nil {
				return 0, 0, 0, fmt.Errorf("bad date %q", s)
			}
			parts[idx] = n
			idx++
			start = i + 1
		}
	}
	if idx != 3 || parts[1] < 1 || parts[1] > 12 || parts[2] < 1 || parts[2] > 31 {
		return 0, 0, 0, fmt.Errorf("bad date %q", s)
	}
	return parts[0], parts[1], parts[2], nil
}

func parseISODate(s string) (bat.Date, error) {
	y, m, d, err := splitISODate(s)
	if err != nil {
		return 0, err
	}
	return algebra.MkDate(y, m, d), nil
}

type compiler struct {
	b         *mal.Builder
	cat       *catalog.Catalog
	tbl       *catalog.Table
	paramArgs []mal.Arg
	havingArg mal.Arg
	limitArg  mal.Arg
	nextParam int
}

// havingParam types the HAVING literal against the aggregate's result
// type: COUNT and SUM over int columns produce ints, everything else
// floats.
func havingParam(tbl *catalog.Table, h *Having) (mal.ValueKind, mal.Value, error) {
	isInt := h.Agg == "count"
	if (h.Agg == "sum" || h.Agg == "min" || h.Agg == "max") && h.Col != "" {
		col := tbl.Column(h.Col)
		if col == nil {
			return 0, mal.Value{}, fmt.Errorf("sqlfe: unknown HAVING column %s", h.Col)
		}
		isInt = col.KindOf == bat.KInt
	}
	if isInt {
		if h.Arg.Kind != LInt {
			return 0, mal.Value{}, fmt.Errorf("sqlfe: HAVING needs integer literal")
		}
		return mal.VInt, mal.IntV(h.Arg.I), nil
	}
	switch h.Arg.Kind {
	case LFloat:
		return mal.VFloat, mal.FloatV(h.Arg.F), nil
	case LInt:
		return mal.VFloat, mal.FloatV(float64(h.Arg.I)), nil
	}
	return 0, mal.Value{}, fmt.Errorf("sqlfe: HAVING needs numeric literal")
}

func (c *compiler) cs(s string) mal.Arg { return mal.C(mal.StrV(s)) }
func (c *compiler) cb(v bool) mal.Arg   { return mal.C(mal.BoolV(v)) }
func (c *compiler) open() mal.Arg       { return mal.C(mal.VoidV()) }
func (c *compiler) bind(col string) mal.Arg {
	return c.b.Op1("sql", "bind", c.cs(c.tbl.Schema), c.cs(c.tbl.Name), c.cs(col), mal.C(mal.IntV(0)))
}

func (c *compiler) takeParam() mal.Arg {
	a := c.paramArgs[c.nextParam]
	c.nextParam++
	return a
}

// emit generates the plan body.
func (c *compiler) emit(q *Query) error {
	rows, err := c.filter(q)
	if err != nil {
		return err
	}
	if len(q.GroupBy) > 0 {
		return c.emitGrouped(q, rows)
	}
	return c.emitFlat(q, rows)
}

// filter compiles the WHERE conjunction into a chain of selections,
// returning a BAT whose head holds the qualifying row oids.
func (c *compiler) filter(q *Query) (mal.Arg, error) {
	var rows mal.Arg
	haveRows := false
	for i := range q.Preds {
		p := &q.Preds[i]
		var colArg mal.Arg
		if !haveRows {
			colArg = c.bind(p.Col)
		} else {
			colArg = c.b.Op1("algebra", "semijoin", c.bind(p.Col), rows)
		}
		var out mal.Arg
		switch p.Op {
		case OpEq:
			out = c.b.Op1("algebra", "uselect", colArg, c.takeParam())
		case OpLt:
			out = c.b.Op1("algebra", "select", colArg, c.open(), c.takeParam(), c.cb(true), c.cb(false))
		case OpLe:
			out = c.b.Op1("algebra", "select", colArg, c.open(), c.takeParam(), c.cb(true), c.cb(true))
		case OpGt:
			out = c.b.Op1("algebra", "select", colArg, c.takeParam(), c.open(), c.cb(false), c.cb(true))
		case OpGe:
			out = c.b.Op1("algebra", "select", colArg, c.takeParam(), c.open(), c.cb(true), c.cb(true))
		case OpBetween:
			lo := c.takeParam()
			hi := c.takeParam()
			out = c.b.Op1("algebra", "select", colArg, lo, hi, c.cb(true), c.cb(true))
		case OpLike:
			out = c.b.Op1("algebra", "likeselect", colArg, c.takeParam())
		case OpNotLike:
			out = c.b.Op1("algebra", "notlikeselect", colArg, c.takeParam())
		case OpNe:
			col := c.tbl.Column(p.Col)
			if col.KindOf != bat.KStr {
				return mal.Arg{}, fmt.Errorf("sqlfe: <> supported on string columns only")
			}
			out = c.b.Op1("algebra", "notlikeselect", colArg, c.takeParam())
		default:
			return mal.Arg{}, fmt.Errorf("sqlfe: unsupported operator")
		}
		rows = out
		haveRows = true
	}
	if !haveRows {
		// No predicates: the base is the first referenced column.
		base := c.firstColumn(q)
		if base == "" {
			return mal.Arg{}, fmt.Errorf("sqlfe: query references no columns")
		}
		rows = c.bind(base)
	}
	return rows, nil
}

func (c *compiler) firstColumn(q *Query) string {
	for _, g := range q.GroupBy {
		return g
	}
	for _, it := range q.Items {
		if it.Col != "" {
			return it.Col
		}
	}
	if len(c.tbl.Cols) > 0 {
		return c.tbl.Cols[0].Name
	}
	return ""
}

// project semijoins a column onto the qualifying row set.
func (c *compiler) project(col string, rows mal.Arg) mal.Arg {
	return c.b.Op1("algebra", "semijoin", c.bind(col), rows)
}

func (c *compiler) emitGrouped(q *Query, rows mal.Arg) error {
	g := c.b.Op1("group", "new", c.project(q.GroupBy[0], rows))
	for _, col := range q.GroupBy[1:] {
		g = c.b.Op1("group", "derive", g, c.project(col, rows))
	}
	groupBase := c.project(q.GroupBy[0], rows)
	heads := c.b.Op1("group", "heads", g, groupBase)

	groupAgg := func(agg, col string) (mal.Arg, error) {
		if agg == "count" {
			return c.b.Op1("aggr", "countGrp", g), nil
		}
		v := c.project(col, rows)
		if agg == "avg" && c.tbl.MustColumn(col).KindOf == bat.KInt {
			v = c.b.Op1("batcalc", "int2dbl", v)
		}
		return c.b.Op1("aggr", agg, v, g), nil
	}

	// HAVING: filter the group ids by the aggregate predicate; every
	// exported column then semijoins onto the qualifying groups. This
	// keeps the (parameter-independent) grouping machinery reusable
	// with the parameter-dependent filter at the very end — the Q18
	// structure the paper's inter-query experiments exploit.
	var qual mal.Arg
	haveQual := false
	if q.Having != nil {
		aggB, err := groupAgg(q.Having.Agg, q.Having.Col)
		if err != nil {
			return err
		}
		var sel mal.Arg
		switch q.Having.Op {
		case OpEq:
			sel = c.b.Op1("algebra", "uselect", aggB, c.havingArg)
		case OpLt:
			sel = c.b.Op1("algebra", "select", aggB, c.open(), c.havingArg, c.cb(true), c.cb(false))
		case OpLe:
			sel = c.b.Op1("algebra", "select", aggB, c.open(), c.havingArg, c.cb(true), c.cb(true))
		case OpGt:
			sel = c.b.Op1("algebra", "select", aggB, c.havingArg, c.open(), c.cb(false), c.cb(true))
		case OpGe:
			sel = c.b.Op1("algebra", "select", aggB, c.havingArg, c.open(), c.cb(true), c.cb(true))
		default:
			return fmt.Errorf("sqlfe: unsupported HAVING operator")
		}
		qual = sel
		haveQual = true
	}
	restrict := func(a mal.Arg) mal.Arg {
		if !haveQual {
			return a
		}
		return c.b.Op1("algebra", "semijoin", a, qual)
	}

	for _, it := range q.Items {
		name := exportName(it)
		switch it.Agg {
		case "":
			// Group key output: map each group's representative row to
			// the column value.
			keycol := c.b.Op1("algebra", "join", heads, c.bind(it.Col))
			c.b.Do("sql", "exportCol", c.cs(name), restrict(keycol))
		case "count", "sum", "avg", "min", "max":
			aggB, err := groupAgg(it.Agg, it.Col)
			if err != nil {
				return err
			}
			c.b.Do("sql", "exportCol", c.cs(name), restrict(aggB))
		default:
			return fmt.Errorf("sqlfe: %s not supported with GROUP BY", it.Agg)
		}
	}
	return nil
}

func (c *compiler) emitFlat(q *Query, rows mal.Arg) error {
	hasAgg := false
	for _, it := range q.Items {
		if it.Agg != "" {
			hasAgg = true
		}
	}
	if hasAgg {
		for _, it := range q.Items {
			name := exportName(it)
			switch it.Agg {
			case "count":
				c.b.Do("sql", "exportValue", c.cs(name), c.b.Op1("aggr", "count", rows))
			case "countd":
				d := c.b.Op1("algebra", "kunique", c.b.Op1("bat", "reverse", c.project(it.Col, rows)))
				c.b.Do("sql", "exportValue", c.cs(name), c.b.Op1("aggr", "count", d))
			case "sum":
				v := c.project(it.Col, rows)
				if c.tbl.MustColumn(it.Col).KindOf == bat.KInt {
					c.b.Do("sql", "exportValue", c.cs(name), c.b.Op1("aggr", "sumInt", v))
				} else {
					c.b.Do("sql", "exportValue", c.cs(name), c.b.Op1("aggr", "sumFlt", v))
				}
			case "avg":
				v := c.project(it.Col, rows)
				if c.tbl.MustColumn(it.Col).KindOf == bat.KInt {
					v = c.b.Op1("batcalc", "int2dbl", v)
				}
				c.b.Do("sql", "exportValue", c.cs(name), c.b.Op1("aggr", "avgFlt", v))
			case "min", "max":
				v := c.project(it.Col, rows)
				srt := c.b.Op1("algebra", "sort", v, c.cb(it.Agg == "min"))
				c.b.Do("sql", "exportCol", c.cs(name), c.b.Op1("algebra", "topn", srt, mal.C(mal.IntV(1))))
			default:
				return fmt.Errorf("sqlfe: aggregate %q unsupported", it.Agg)
			}
		}
		return nil
	}

	// Plain projection, with optional ORDER BY + LIMIT.
	out := rows
	if q.OrderBy != nil {
		ord := c.project(q.OrderBy.Col, rows)
		srt := c.b.Op1("algebra", "sort", ord, c.cb(!q.OrderBy.Desc))
		out = srt
	}
	if q.Limit > 0 {
		out = c.b.Op1("algebra", "topn", out, c.limitArg)
	}
	for _, it := range q.Items {
		name := exportName(it)
		c.b.Do("sql", "exportCol", c.cs(name), c.project(it.Col, out))
	}
	return nil
}

func exportName(it SelectItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	if it.Agg == "" {
		return it.Col
	}
	if it.Col == "" {
		return it.Agg
	}
	return it.Agg + "_" + it.Col
}
