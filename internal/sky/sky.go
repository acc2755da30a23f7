package sky

import (
	"fmt"
	"math/rand"

	"repro/internal/catalog"

	"repro/internal/bat"
	"repro/internal/mal"
	"repro/internal/opt"
)

// Schema for all SkyServer tables.
const Schema = "sky"

// propCols are the photometric property columns projected by the
// dominant query pattern (the paper's pattern projects 19 properties).
var propCols = []string{
	"run", "rerun", "camcol", "field", "obj",
	"psfmag_u", "psfmag_g", "psfmag_r", "psfmag_i", "psfmag_z",
	"petrorad_r", "petror50_r", "petror90_r",
	"dered_u", "dered_g", "dered_r", "dered_i", "dered_z", "status",
}

// DB is a generated SkyServer-like database.
type DB struct {
	Cat     *catalog.Catalog
	Objects int
	rng     *rand.Rand
}

// Generate builds the synthetic catalog with n sky objects.
func Generate(n int, seed int64) *DB {
	if n <= 0 {
		n = 50000
	}
	db := &DB{Cat: catalog.New(), Objects: n, rng: rand.New(rand.NewSource(seed))}
	db.genPhotoObj()
	db.genDocs()
	db.genSpecObj()
	return db
}

func (db *DB) genPhotoObj() {
	defs := []catalog.ColDef{
		{Name: "objid", Kind: bat.KInt, Sorted: true},
		{Name: "ra", Kind: bat.KFloat},
		{Name: "dec", Kind: bat.KFloat},
		{Name: "mode", Kind: bat.KInt},
	}
	for _, c := range propCols[:5] {
		defs = append(defs, catalog.ColDef{Name: c, Kind: bat.KInt})
	}
	for _, c := range propCols[5 : len(propCols)-1] {
		defs = append(defs, catalog.ColDef{Name: c, Kind: bat.KFloat})
	}
	defs = append(defs, catalog.ColDef{Name: "status", Kind: bat.KInt})
	t := db.Cat.CreateTable(Schema, "photoobj", defs)

	n := db.Objects
	objid, ra, dec, mode := make([]int64, n), make([]float64, n), make([]float64, n), make([]int64, n)
	ints := make([][]int64, len(propCols[:5]))
	for j := range ints {
		ints[j] = make([]int64, n)
	}
	floats := make([][]float64, len(propCols[5:len(propCols)-1]))
	for j := range floats {
		floats[j] = make([]float64, n)
	}
	status := make([]int64, n)
	for i := range n {
		objid[i] = int64(0x0500000000000000) + int64(i)
		ra[i] = db.rng.Float64() * 360
		dec[i] = db.rng.Float64()*180 - 90
		mode[i] = int64(db.rng.Intn(2) + 1)
		for _, v := range ints {
			v[i] = int64(db.rng.Intn(10000))
		}
		for _, v := range floats {
			v[i] = 10 + db.rng.Float64()*15
		}
		status[i] = int64(db.rng.Intn(8))
	}
	cols := []bat.Vector{bat.NewInts(objid), bat.NewFloats(ra), bat.NewFloats(dec), bat.NewInts(mode)}
	for _, v := range ints {
		cols = append(cols, bat.NewInts(v))
	}
	for _, v := range floats {
		cols = append(cols, bat.NewFloats(v))
	}
	load(t, append(cols, bat.NewInts(status))...)
	t.DefineKeyIndex("objid")
}

func (db *DB) genDocs() {
	t := db.Cat.CreateTable(Schema, "dbobjects", []catalog.ColDef{
		{Name: "name", Kind: bat.KStr},
		{Name: "type", Kind: bat.KStr},
		{Name: "description", Kind: bat.KStr},
	})
	kinds := []string{"U", "V", "F", "P"}
	name, typ, desc := make([]string, 400), make([]string, 400), make([]string, 400)
	for i := range name {
		name[i] = fmt.Sprintf("dbobj_%03d", i)
		typ[i] = kinds[i%len(kinds)]
		desc[i] = fmt.Sprintf("documentation entry %d for the schema browser", i)
	}
	load(t, bat.NewStrings(name), bat.NewStrings(typ), bat.NewStrings(desc))
}

func (db *DB) genSpecObj() {
	t := db.Cat.CreateTable(Schema, "elredshift", []catalog.ColDef{
		{Name: "specobjid", Kind: bat.KInt, Sorted: true},
		{Name: "z", Kind: bat.KFloat},
		{Name: "zerr", Kind: bat.KFloat},
	})
	n := db.Objects / 10
	if n < 100 {
		n = 100
	}
	id, z, zerr := make([]int64, n), make([]float64, n), make([]float64, n)
	for i := range n {
		id[i] = int64(0x0559000000000000) + int64(i)
		z[i] = db.rng.Float64()
		zerr[i] = db.rng.Float64() / 100
	}
	load(t, bat.NewInts(id), bat.NewFloats(z), bat.NewFloats(zerr))
}

// load appends the generated columns to t; a generator that builds
// columns t does not take is a bug.
func load(t *catalog.Table, cols ...bat.Vector) {
	if _, err := t.AppendColumns(cols); err != nil {
		panic(err)
	}
}

// Table is a convenience accessor.
func (db *DB) Table(name string) *catalog.Table { return db.Cat.MustTable(Schema, name) }

// --- query templates ---------------------------------------------------

// NearbyObjTemplate is the dominant log pattern: a bounding-box
// spatial search over (ra, dec) — our stand-in for
// fGetNearbyObjEq(ra,dec,r) joined with PhotoPrimary — projecting the
// popular property columns and returning the first match.
//
// Params: A0..A3 = raLo, raHi, decLo, decHi.
func NearbyObjTemplate() *mal.Template {
	b := mal.NewBuilder("nearby_obj")
	raLo := b.Param("A0", mal.VFloat)
	raHi := b.Param("A1", mal.VFloat)
	decLo := b.Param("A2", mal.VFloat)
	decHi := b.Param("A3", mal.VFloat)

	cs := func(s string) mal.Arg { return mal.C(mal.StrV(s)) }
	bind := func(col string) mal.Arg {
		return b.Op1("sql", "bind", cs(Schema), cs("photoobj"), cs(col), mal.C(mal.IntV(0)))
	}
	tr := mal.C(mal.BoolV(true))

	ra := bind("ra")
	rsel := b.Op1("algebra", "select", ra, raLo, raHi, tr, tr)
	dec := b.Op1("algebra", "semijoin", bind("dec"), rsel)
	rows := b.Op1("algebra", "select", dec, decLo, decHi, tr, tr)
	// PhotoPrimary view: mode = 1.
	mode := b.Op1("algebra", "semijoin", bind("mode"), rows)
	prim := b.Op1("algebra", "uselect", mode, mal.C(mal.IntV(1)))
	objid := b.Op1("algebra", "semijoin", bind("objid"), prim)
	b.Do("sql", "exportCol", cs("objid"), b.Op1("algebra", "topn", objid, mal.C(mal.IntV(1))))
	for _, c := range propCols {
		col := b.Op1("algebra", "semijoin", bind(c), prim)
		b.Do("sql", "exportCol", cs(c), b.Op1("algebra", "topn", col, mal.C(mal.IntV(1))))
	}
	return opt.Optimize(b.Freeze(), opt.Options{})
}

// DocsTemplate is the documentation-table pattern (~36% of the log):
// look up schema metadata by name.
func DocsTemplate() *mal.Template {
	b := mal.NewBuilder("docs")
	a0 := b.Param("A0", mal.VStr)
	cs := func(s string) mal.Arg { return mal.C(mal.StrV(s)) }
	name := b.Op1("sql", "bind", cs(Schema), cs("dbobjects"), cs("name"), mal.C(mal.IntV(0)))
	sel := b.Op1("algebra", "uselect", name, a0)
	desc := b.Op1("sql", "bind", cs(Schema), cs("dbobjects"), cs("description"), mal.C(mal.IntV(0)))
	out := b.Op1("algebra", "semijoin", desc, sel)
	b.Do("sql", "exportCol", cs("description"), out)
	return opt.Optimize(b.Freeze(), opt.Options{})
}

// PointTemplate is the point-lookup pattern (~2% of the log):
// SELECT * FROM ELRedshift WHERE specObjId = X.
func PointTemplate() *mal.Template {
	b := mal.NewBuilder("point")
	a0 := b.Param("A0", mal.VInt)
	cs := func(s string) mal.Arg { return mal.C(mal.StrV(s)) }
	id := b.Op1("sql", "bind", cs(Schema), cs("elredshift"), cs("specobjid"), mal.C(mal.IntV(0)))
	sel := b.Op1("algebra", "uselect", id, a0)
	z := b.Op1("sql", "bind", cs(Schema), cs("elredshift"), cs("z"), mal.C(mal.IntV(0)))
	out := b.Op1("algebra", "semijoin", z, sel)
	b.Do("sql", "exportCol", cs("z"), out)
	return opt.Optimize(b.Freeze(), opt.Options{})
}

// MicroSelectTemplate is the §8.3 micro-benchmark pattern: a spatial
// search over right ascension (with a fixed declination window) whose
// selection is the target of combined subsumption.
func MicroSelectTemplate() *mal.Template {
	b := mal.NewBuilder("micro_ra")
	raLo := b.Param("A0", mal.VFloat)
	raHi := b.Param("A1", mal.VFloat)
	cs := func(s string) mal.Arg { return mal.C(mal.StrV(s)) }
	tr := mal.C(mal.BoolV(true))
	ra := b.Op1("sql", "bind", cs(Schema), cs("photoobj"), cs("ra"), mal.C(mal.IntV(0)))
	rsel := b.Op1("algebra", "select", ra, raLo, raHi, tr, tr)
	cnt := b.Op1("aggr", "count", rsel)
	b.Do("sql", "exportValue", cs("n"), cnt)
	return opt.Optimize(b.Freeze(), opt.Options{})
}

// --- workload sampling --------------------------------------------------

// Query is one sampled workload query: a template plus parameter
// values.
type Query struct {
	Kind   string // "nearby", "docs", "point"
	Params []mal.Value
}

// Workload bundles the compiled templates with a sampled batch.
type Workload struct {
	Nearby *mal.Template
	Docs   *mal.Template
	Point  *mal.Template
	Batch  []Query
}

// Template returns the template for a query kind.
func (w *Workload) Template(kind string) *mal.Template {
	switch kind {
	case "nearby":
		return w.Nearby
	case "docs":
		return w.Docs
	case "point":
		return w.Point
	}
	panic("sky: unknown query kind " + kind)
}

// SampleWorkload draws n queries following the §8.1 log statistics:
// >60% nearby-object searches drawn from two overlapping parameter
// sets, ~36% documentation lookups, ~2% point queries.
func SampleWorkload(db *DB, n int, seed int64) *Workload {
	rng := rand.New(rand.NewSource(seed))
	w := &Workload{
		Nearby: NearbyObjTemplate(),
		Docs:   DocsTemplate(),
		Point:  PointTemplate(),
	}
	// The two overlapping footprints observed in the log: same region
	// of sky, slightly different centre/size.
	footprints := [][4]float64{
		{195.0, 197.5, 2.0, 3.0},
		{195.5, 198.0, 2.2, 3.2},
	}
	for i := 0; i < n; i++ {
		r := rng.Float64()
		switch {
		case r < 0.62:
			fp := footprints[rng.Intn(2)]
			w.Batch = append(w.Batch, Query{Kind: "nearby", Params: []mal.Value{
				mal.FloatV(fp[0]), mal.FloatV(fp[1]), mal.FloatV(fp[2]), mal.FloatV(fp[3]),
			}})
		case r < 0.98:
			w.Batch = append(w.Batch, Query{Kind: "docs", Params: []mal.Value{
				mal.StrV(fmt.Sprintf("dbobj_%03d", rng.Intn(40))),
			}})
		default:
			w.Batch = append(w.Batch, Query{Kind: "point", Params: []mal.Value{
				mal.IntV(int64(0x0559000000000000) + int64(rng.Intn(100))),
			}})
		}
	}
	return w
}

// --- §8.3 micro-benchmarks ----------------------------------------------

// MicroBench is a generated B-k benchmark: a sequence of ra-range
// queries in which every (k+1)-th query (the seed) is answerable by
// combined subsumption from the k covering queries before it.
type MicroBench struct {
	K       int
	Templ   *mal.Template
	Queries [][]mal.Value // each entry: raLo, raHi
	// SeedIdx marks which batch positions are seed queries.
	SeedIdx map[int]bool
}

// GenMicroBench builds the benchmark of §8.3: seed queries with
// selectivity factor s over ra, each preceded by k covering queries of
// selectivity 1.5*s/(k-1) (per the paper's formula), positioned so
// that (a) consecutive covering queries overlap, (b) their union
// covers the seed range, and (c) no single covering query contains the
// seed — forcing the *combined* subsumption path.
func GenMicroBench(k, seeds int, s float64, seed int64) *MicroBench {
	if k < 2 {
		panic("sky: micro benchmark needs k >= 2")
	}
	rng := rand.New(rand.NewSource(seed))
	mb := &MicroBench{K: k, Templ: MicroSelectTemplate(), SeedIdx: map[int]bool{}}
	span := 360.0 * s // seed query width in ra degrees (ra is uniform)
	cover := 360.0 * (1.5 * s / float64(k-1))
	// Each covering query owns one of k equal seed segments and
	// spends its extra width on margins: the outermost queries push
	// their margin outside the seed range, interior ones split it, so
	// none covers the whole seed alone while neighbours overlap.
	extra := cover - span/float64(k)
	if extra <= 0 {
		extra = 0.1 * span
		cover = span/float64(k) + extra
	}
	for i := 0; i < seeds; i++ {
		lo := extra + rng.Float64()*(360-span-4*extra)
		hi := lo + span
		for j := 0; j < k; j++ {
			segLo := lo + float64(j)*span/float64(k)
			segHi := lo + float64(j+1)*span/float64(k)
			left, right := 0.5*extra, 0.5*extra
			if j == 0 {
				left, right = 0.8*extra, 0.2*extra
			}
			if j == k-1 {
				left, right = 0.2*extra, 0.8*extra
			}
			mb.Queries = append(mb.Queries, []mal.Value{
				mal.FloatV(segLo - left), mal.FloatV(segHi + right),
			})
		}
		mb.SeedIdx[len(mb.Queries)] = true
		mb.Queries = append(mb.Queries, []mal.Value{mal.FloatV(lo), mal.FloatV(hi)})
	}
	return mb
}
