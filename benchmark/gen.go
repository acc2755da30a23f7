package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/catalog"
	"repro/internal/mal"
	"repro/internal/tpch"
)

// This file holds the harness's own workload generators. They are
// seeded only by -seed; the program under test receives nothing but
// the generated SQL/DML text (sky workloads) or template parameters
// (tpch-mix).

// op is one generated operation. Every op carries the text the wire
// sees; writes also carry their in-process form (the traced run calls
// Table.Append/Delete directly) and tpch ops carry the compiled
// template and parameters (tpch-mix has no SQL front end in its path).
type op struct {
	sql   string
	write bool
	// row is the inserted row of an INSERT; nil on a write means
	// DELETE of objid.
	row   catalog.Row
	objid int64

	tmpl   *mal.Template
	params []mal.Value
}

// clientGen is one closed-loop client's deterministic op source: warm
// ops are issued once during set-up, next yields the measured stream.
type clientGen struct {
	warm []op
	next func() op
}

const (
	countBox = "SELECT COUNT(*) FROM sky.photoobj WHERE ra BETWEEN %s AND %s AND dec BETWEEN %s AND %s AND mode = 1"
	groupBox = "SELECT status, COUNT(*) FROM sky.photoobj WHERE ra BETWEEN %s AND %s AND dec BETWEEN %s AND %s GROUP BY status"
)

// f2 renders a coordinate with the two decimals the workloads round to.
func f2(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }

// sky-hot draws its lookups from this many dbobjects names and
// elredshift ids.
const (
	hotDocs   = 40
	hotPoints = 100
)

func docSQL(i int) string {
	return fmt.Sprintf("SELECT description FROM sky.dbobjects WHERE name = 'dbobj_%03d'", i)
}

func pointSQL(i int) string {
	return fmt.Sprintf("SELECT z FROM sky.elredshift WHERE specobjid = %d", int64(0x0559000000000000)+int64(i))
}

// skyHotClients is the §8.1 log mix as SQL text: 62% bounding-box
// COUNT(*) over two overlapping footprints, 36% dbobjects lookups over
// 40 names, 2% elredshift point queries. The ~150 distinct statements
// form the warm-up (split between the clients), so every measured op
// finds its intermediates in the pool.
func skyHotClients(seed int64, clients int) []clientGen {
	rng := rand.New(rand.NewSource(seed))
	footprints := [2][4]string{
		{"195.00", "197.50", "2.00", "3.00"},
		{"195.50", "198.00", "2.20", "3.20"},
	}
	const listLen = 8192
	list := make([]op, listLen)
	for i := range list {
		r := rng.Float64()
		switch {
		case r < 0.62:
			fp := footprints[rng.Intn(2)]
			list[i].sql = fmt.Sprintf(countBox, fp[0], fp[1], fp[2], fp[3])
		case r < 0.98:
			list[i].sql = docSQL(rng.Intn(hotDocs))
		default:
			list[i].sql = pointSQL(rng.Intn(hotPoints))
		}
	}
	// Every statement the mix can produce, not just the ones this
	// list happened to draw, so the warm-up is the same for any seed.
	var distinct []op
	for _, fp := range footprints {
		distinct = append(distinct, op{sql: fmt.Sprintf(countBox, fp[0], fp[1], fp[2], fp[3])})
	}
	for i := 0; i < hotDocs; i++ {
		distinct = append(distinct, op{sql: docSQL(i)})
	}
	for i := 0; i < hotPoints; i++ {
		distinct = append(distinct, op{sql: pointSQL(i)})
	}
	out := make([]clientGen, clients)
	for c := range out {
		for i := c; i < len(distinct); i += clients {
			out[c].warm = append(out[c].warm, distinct[i])
		}
		pos := c * listLen / clients
		out[c].next = func() op {
			o := list[pos%listLen]
			pos++
			return o
		}
	}
	return out
}

// box is a query rectangle in hundredths of a degree, so rounding to
// 0.01 and "strictly inside" are exact integer statements.
type box struct{ raLo, raHi, decLo, decHi int }

func (b box) sql(group bool) string {
	c := func(v int) string { return f2(float64(v) / 100) }
	if group {
		return fmt.Sprintf(groupBox, c(b.raLo), c(b.raHi), c(b.decLo), c(b.decHi))
	}
	return fmt.Sprintf(countBox, c(b.raLo), c(b.raHi), c(b.decLo), c(b.decHi))
}

// skyExploreClients walks a seeded random path over (ra, dec): 65%
// moved boxes (width 1–9°, height 1–7°: pool misses), 30% zoom-ins
// strictly inside the previous box (singleton-subsumption candidates),
// 5% repeats of one of the client's last 50 queries; 80% COUNT(*) with
// mode = 1, 20% GROUP BY status. Each client walks its own path.
func skyExploreClients(seed int64, clients, warmOps int) []clientGen {
	out := make([]clientGen, clients)
	for c := range out {
		rng := rand.New(rand.NewSource(seed*7919 + int64(c)))
		prev := box{raLo: 18000, raHi: 18500, decLo: 0, decHi: 400}
		var recent []string
		next := func() op {
			r := rng.Float64()
			if r >= 0.95 && len(recent) > 0 {
				return op{sql: recent[rng.Intn(len(recent))]}
			}
			var b box
			if r >= 0.65 && prev.raHi-prev.raLo >= 40 && prev.decHi-prev.decLo >= 40 {
				// Zoom in: shrink every side by at least 0.01°.
				w, h := prev.raHi-prev.raLo, prev.decHi-prev.decLo
				nw := w/4 + rng.Intn(w/2)
				nh := h/4 + rng.Intn(h/2)
				b.raLo = prev.raLo + 1 + rng.Intn(w-nw-1)
				b.raHi = b.raLo + nw
				b.decLo = prev.decLo + 1 + rng.Intn(h-nh-1)
				b.decHi = b.decLo + nh
			} else {
				w := 100 + rng.Intn(801)
				h := 100 + rng.Intn(601)
				b.raLo = clampInt(prev.raLo+rng.Intn(6001)-3000, 0, 36000-w)
				b.raHi = b.raLo + w
				b.decLo = clampInt(prev.decLo+rng.Intn(3001)-1500, -9000, 9000-h)
				b.decHi = b.decLo + h
			}
			prev = b
			s := b.sql(rng.Float64() < 0.20)
			if len(recent) < 50 {
				recent = append(recent, s)
			} else {
				recent[rng.Intn(50)] = s
			}
			return op{sql: s}
		}
		for i := 0; i < warmOps; i++ {
			out[c].warm = append(out[c].warm, next())
		}
		out[c].next = next
	}
	return out
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// photoCols is sky.photoobj's column list in schema order (INSERT must
// name every column). intCols marks the integer-typed ones.
var photoCols = []string{
	"objid", "ra", "dec", "mode",
	"run", "rerun", "camcol", "field", "obj",
	"psfmag_u", "psfmag_g", "psfmag_r", "psfmag_i", "psfmag_z",
	"petrorad_r", "petror50_r", "petror90_r",
	"dered_u", "dered_g", "dered_r", "dered_i", "dered_z", "status",
}

var intCols = map[string]bool{
	"objid": true, "mode": true, "run": true, "rerun": true, "camcol": true,
	"field": true, "obj": true, "status": true,
}

// rwStatements samples k distinct bounding-box COUNT statements; every
// one compiles to a chain the recycler can delta-maintain.
func rwStatements(rng *rand.Rand, k int) []box {
	out := make([]box, 0, k)
	seen := map[box]bool{}
	for len(out) < k {
		var b box
		b.raLo = rng.Intn(640) * 50
		b.raHi = b.raLo + (rng.Intn(8)+1)*50
		b.decLo = rng.Intn(300)*50 - 8500
		b.decHi = b.decLo + (rng.Intn(6)+1)*50
		if !seen[b] {
			seen[b] = true
			out = append(out, b)
		}
	}
	return out
}

// rwObjidBase is where client c's inserted objids start: far above the
// generated catalog's range and disjoint between clients.
func rwObjidBase(c int) int64 {
	return int64(0x0500000000000000) + int64(c+1)*100_000_000
}

// skyRWClients mixes 90% reads cycling through 64 seeded box COUNT(*)
// statements with 10% writes: single-row INSERTs of fresh,
// client-partitioned objids whose ra/dec land inside a statement's
// footprint, and (50/50 once the client owns ≥10 rows) DELETEs by
// objid of the client's oldest inserted row.
func skyRWClients(seed int64, clients int) ([]clientGen, []op) {
	stmts := rwStatements(rand.New(rand.NewSource(seed)), 64)
	reads := make([]op, len(stmts))
	for i, b := range stmts {
		reads[i] = op{sql: b.sql(false)}
	}
	out := make([]clientGen, clients)
	for c := range out {
		rng := rand.New(rand.NewSource(seed*7919 + 1000 + int64(c)))
		for i := c; i < len(reads); i += clients {
			out[c].warm = append(out[c].warm, reads[i])
		}
		nextObjid := rwObjidBase(c)
		var owned []int64
		pos := c * len(reads) / clients
		out[c].next = func() op {
			if rng.Float64() >= 0.10 {
				o := reads[pos%len(reads)]
				pos++
				return o
			}
			if len(owned) >= 10 && rng.Intn(2) == 0 {
				id := owned[0]
				owned = owned[1:]
				return op{write: true, objid: id, sql: fmt.Sprintf("DELETE FROM sky.photoobj WHERE objid = %d", id)}
			}
			id := nextObjid
			nextObjid++
			owned = append(owned, id)
			return insertOp(rng, id, stmts[rng.Intn(len(stmts))])
		}
	}
	return out, reads
}

// insertOp builds one full-row INSERT landing inside b. The row's
// values are parsed back from the rendered literals, so the in-process
// shadow catalog holds bit-for-bit what the server parsed.
func insertOp(rng *rand.Rand, objid int64, b box) op {
	lits := make([]string, len(photoCols))
	row := catalog.Row{}
	for i, col := range photoCols {
		var lit string
		switch col {
		case "objid":
			lit = strconv.FormatInt(objid, 10)
		case "ra":
			lit = f2(float64(b.raLo+rng.Intn(b.raHi-b.raLo+1)) / 100)
		case "dec":
			lit = f2(float64(b.decLo+rng.Intn(b.decHi-b.decLo+1)) / 100)
		case "mode":
			lit = strconv.Itoa(rng.Intn(2) + 1)
		case "status":
			lit = strconv.Itoa(rng.Intn(8))
		default:
			if intCols[col] {
				lit = strconv.Itoa(rng.Intn(10000))
			} else {
				lit = strconv.FormatFloat(10+math.Floor(rng.Float64()*150000)/10000, 'f', 4, 64)
			}
		}
		lits[i] = lit
		if intCols[col] {
			v, _ := strconv.ParseInt(lit, 10, 64)
			row[col] = v
		} else {
			v, _ := strconv.ParseFloat(lit, 64)
			row[col] = v
		}
	}
	return op{
		write: true, row: row, objid: objid,
		sql: "INSERT INTO sky.photoobj (" + strings.Join(photoCols, ", ") + ") VALUES (" + strings.Join(lits, ", ") + ")",
	}
}

// tpchMixQueries is the §7.2 mixed batch: the ten high-overlap queries.
var tpchMixQueries = []int{4, 7, 8, 11, 12, 16, 18, 19, 21, 22}

// tpchMixClients yields cycles of the mixed batch (per instances of
// each query, shuffled, fresh TPC-H substitution parameters per cycle
// drawn from seed+cycle); client c runs every clients-th item of each
// cycle. The parameter rules themselves are tpch.QueryDef.Params: they
// belong to the benchmark's definition of TPC-H, not to the engine.
func tpchMixClients(seed int64, clients, per int, qm map[int]*tpch.QueryDef) []clientGen {
	cycle := func(n int64) []op {
		rng := rand.New(rand.NewSource(seed + n))
		items := make([]op, 0, per*len(tpchMixQueries))
		for i := 0; i < per; i++ {
			for _, qn := range tpchMixQueries {
				d := qm[qn]
				p := d.Params(rng)
				items = append(items, op{sql: tpchKey(qn, p), tmpl: d.Templ, params: p})
			}
		}
		rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
		return items
	}
	out := make([]clientGen, clients)
	for c := range out {
		var n int64
		items := cycle(0)
		pos := c
		out[c].next = func() op {
			if pos >= len(items) {
				n++
				items = cycle(n)
				pos = c
			}
			o := items[pos]
			pos += clients
			return o
		}
	}
	return out
}

// tpchKey names a query instance (the op's identity for the oracle and
// for the generator tests).
func tpchKey(qn int, params []mal.Value) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Q%d", qn)
	for _, p := range params {
		sb.WriteByte(' ')
		sb.WriteString(p.String())
	}
	return sb.String()
}
