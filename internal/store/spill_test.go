package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/bat"
	"repro/internal/catalog"
	"repro/internal/mal"
	"repro/internal/recycler"
	"repro/internal/sky"
)

// The pool image tests drive a real engine over a small SkyServer
// catalog: the queries below produce bind → select → count chains
// whose recipes are written to the image at drain and recomputed into
// a fresh recycler at prewarm.

const boxQuery = "SELECT COUNT(*) FROM sky.photoobj WHERE ra BETWEEN 195.0 AND 215.5 AND dec BETWEEN 2.0 AND 33.0 AND mode = 1"

func countOf(t testing.TB, res *repro.ExecResult) int64 {
	t.Helper()
	if len(res.Results) == 0 {
		t.Fatal("no results")
	}
	v := res.Results[0].Val
	return v.I
}

// newTier returns an image store over a fresh directory.
func newTier(t *testing.T) *Spill {
	return &Spill{path: filepath.Join(t.TempDir(), imageFile)}
}

// spillAll drains rec's pool into its image store.
func spillAll(t *testing.T, rec *recycler.Recycler) int {
	t.Helper()
	n, err := rec.SpillAll()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// prewarm loads rec's image store into its pool.
func prewarm(t *testing.T, rec *recycler.Recycler) int {
	t.Helper()
	n, err := rec.Prewarm()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func newSpillEngine(t *testing.T, cat *catalog.Catalog, tier *Spill) *repro.Engine {
	t.Helper()
	eng := repro.NewEngine(cat, repro.WithRecycler(recycler.Config{
		Admission: recycler.KeepAll,
		Spill:     tier,
	}))
	t.Cleanup(eng.Recycler().Close)
	return eng
}

// TestPrewarmServesFirstQuery: a fresh recycler over the same catalog
// pre-warms from the tier and serves the very first query from the
// pool.
func TestPrewarmServesFirstQuery(t *testing.T) {
	db := sky.Generate(2000, 17)
	tier := newTier(t)
	engA := newSpillEngine(t, db.Cat, tier)
	res1, err := engA.ExecSQL(boxQuery)
	if err != nil {
		t.Fatal(err)
	}
	want := countOf(t, res1)
	if spillAll(t, engA.Recycler()) == 0 {
		t.Fatal("SpillAll wrote nothing")
	}

	engB := newSpillEngine(t, db.Cat, tier)
	n := prewarm(t, engB.Recycler())
	if n == 0 {
		t.Fatal("prewarm admitted nothing")
	}
	res2, err := engB.ExecSQL(boxQuery)
	if err != nil {
		t.Fatal(err)
	}
	if got := countOf(t, res2); got != want {
		t.Fatalf("prewarmed result %d != original %d", got, want)
	}
	if res2.Stats.Hits == 0 {
		t.Fatal("first query after prewarm reported no pool hits")
	}
	st := engB.Recycler().Snapshot()
	if st.Prewarmed == 0 || st.Reuses == 0 {
		t.Fatalf("prewarm stats: %+v", st)
	}
}

// TestPrewarmRejectsStale: an image written before a commit does not
// load the pre-commit results. Its recipes are recomputed at the
// catalog's current version, so the pre-warmed pool answers as naive
// recompute does after the commit, and the first query hits.
func TestPrewarmRejectsStale(t *testing.T) {
	db := sky.Generate(2000, 17)
	tier := newTier(t)
	engA := newSpillEngine(t, db.Cat, tier)
	if _, err := engA.ExecSQL(boxQuery); err != nil {
		t.Fatal(err)
	}
	if spillAll(t, engA.Recycler()) == 0 {
		t.Fatal("SpillAll wrote nothing")
	}

	// Any committed delete bumps the table version.
	db.Cat.MustTable("sky", "photoobj").Delete([]bat.Oid{1})

	engB := newSpillEngine(t, db.Cat, tier)
	expectWarmAnswer(t, engB, repro.NewEngine(db.Cat), boxQuery)
}

// expectWarmAnswer pre-warms eng's pool and checks that prewarm
// admitted entries, that the first query hits them, and that it
// answers q as naive does.
func expectWarmAnswer(t *testing.T, eng, naive *repro.Engine, q string) {
	t.Helper()
	if n := prewarm(t, eng.Recycler()); n == 0 {
		t.Fatal("prewarm admitted nothing")
	}
	res, err := eng.ExecSQL(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Hits == 0 {
		t.Fatal("first query after prewarm reported no pool hits")
	}
	want, err := naive.ExecSQL(q)
	if err != nil {
		t.Fatal(err)
	}
	if got, w := countOf(t, res), countOf(t, want); got != w {
		t.Fatalf("pre-warmed answer %d, naive %d", got, w)
	}
}

// TestPrewarmRejectsRecreatedTable: an image of a table that was
// dropped and recreated since does not load the old table's results,
// even where the recreated table's version counter reaches the old
// value again. Its recipes are recomputed over the new table.
func TestPrewarmRejectsRecreatedTable(t *testing.T) {
	cat := catalog.New()
	mk := func(v int64) {
		tb := cat.CreateTable("sys", "kv", []catalog.ColDef{
			{Name: "k", Kind: bat.KInt},
			{Name: "v", Kind: bat.KInt},
		})
		tb.Append([]catalog.Row{{"k": int64(1), "v": v}, {"k": int64(2), "v": v + 10}})
	}
	const q = "SELECT COUNT(*) FROM sys.kv WHERE v BETWEEN 5 AND 15"
	mk(10)
	tier := newTier(t)
	engA := repro.NewEngine(cat, repro.WithRecycler(recycler.Config{Admission: recycler.KeepAll, Spill: tier}))
	if _, err := engA.ExecSQL(q); err != nil {
		t.Fatal(err)
	}
	if spillAll(t, engA.Recycler()) == 0 {
		t.Fatal("SpillAll wrote nothing")
	}
	engA.Recycler().Close()

	// Drop and recreate with other data: the new table's Version
	// equals the old one's, and the answer differs.
	cat.DropTable("sys", "kv")
	mk(0)

	engB := repro.NewEngine(cat, repro.WithRecycler(recycler.Config{Admission: recycler.KeepAll, Spill: tier}))
	defer engB.Recycler().Close()
	expectWarmAnswer(t, engB, repro.NewEngine(cat), q)
}

// TestNoSpillDuringPendingCommit: a drain inside a commit window —
// the table's new version visible, the pool not fixed up yet — writes
// the pool's recipes like any other drain. They hold at any version,
// so the image pre-warms a fresh recycler that answers as naive
// recompute does after the commit.
func TestNoSpillDuringPendingCommit(t *testing.T) {
	db := sky.Generate(2000, 17)
	tier := newTier(t)
	// Registered before the recycler, this listener runs inside the
	// commit window: the mutation is visible, the pool not fixed up yet.
	var rec *recycler.Recycler
	inWindow := -1
	db.Cat.AddListener(onUpdate(func(catalog.Commit) {
		if rec != nil && inWindow < 0 {
			inWindow = spillAll(t, rec)
		}
	}))
	eng := newSpillEngine(t, db.Cat, tier)
	if _, err := eng.ExecSQL(boxQuery); err != nil {
		t.Fatal(err)
	}
	rec = eng.Recycler()

	db.Cat.MustTable("sky", "photoobj").Delete([]bat.Oid{0})
	if inWindow <= 0 {
		t.Fatalf("SpillAll inside the commit window wrote %d records", inWindow)
	}
	engB := newSpillEngine(t, db.Cat, tier)
	expectWarmAnswer(t, engB, repro.NewEngine(db.Cat), boxQuery)
}

// onUpdate is a catalog listener running f on every commit.
type onUpdate func(catalog.Commit)

func (f onUpdate) OnUpdate(c catalog.Commit) { f(c) }

// TestRestartWarmPool is the end-to-end restart path: catalog and pool
// survive a full store cycle (bootstrap → queries → spill + checkpoint
// → close → recover → prewarm) and the first post-restart query hits.
func TestRestartWarmPool(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	db := sky.Generate(2000, 17)
	if err := st.Bootstrap(db.Cat); err != nil {
		t.Fatal(err)
	}
	eng := newSpillEngine(t, db.Cat, st.Spill())
	res1, err := eng.ExecSQL(boxQuery)
	if err != nil {
		t.Fatal(err)
	}
	want := countOf(t, res1)
	if spillAll(t, eng.Recycler()) == 0 {
		t.Fatal("SpillAll wrote nothing")
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cat2, err := st2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	eng2 := newSpillEngine(t, cat2, st2.Spill())
	if n := prewarm(t, eng2.Recycler()); n == 0 {
		t.Fatal("nothing prewarmed after restart")
	}
	res2, err := eng2.ExecSQL(boxQuery)
	if err != nil {
		t.Fatal(err)
	}
	if got := countOf(t, res2); got != want {
		t.Fatalf("post-restart result %d != pre-restart %d", got, want)
	}
	if res2.Stats.Hits == 0 {
		t.Fatal("first post-restart query reported no pool hits")
	}
	if st := eng2.Recycler().Snapshot(); st.Reuses == 0 {
		t.Fatalf("no reuses before any recomputation: %+v", st)
	}
}

// boxRow builds one complete photoobj row landing inside boxQuery's
// bounding box.
func boxRow(t *testing.T, tbl *catalog.Table, objid int64) catalog.Row {
	t.Helper()
	row := catalog.Row{"objid": objid, "ra": 200.0, "dec": 10.0, "mode": int64(1)}
	for _, c := range tbl.Cols {
		if _, ok := row[c.Name]; !ok {
			switch c.KindOf {
			case bat.KInt:
				row[c.Name] = int64(0)
			case bat.KFloat:
				row[c.Name] = 0.0
			case bat.KStr:
				row[c.Name] = ""
			default:
				t.Fatalf("unexpected column kind %v", c.KindOf)
			}
		}
	}
	return row
}

func newMaintainSpillEngine(t *testing.T, cat *catalog.Catalog, tier *Spill) *repro.Engine {
	t.Helper()
	eng := repro.NewEngine(cat, repro.WithRecycler(recycler.Config{
		Admission: recycler.KeepAll,
		Spill:     tier,
		Sync:      recycler.SyncMaintain,
	}))
	t.Cleanup(eng.Recycler().Close)
	return eng
}

// TestMaintainSpillRestart is the maintain mode crash-consistency
// contract: commit → maintain → SpillAll → restart → Prewarm must
// rehydrate the MAINTAINED content — the post-commit values, stamped
// at the post-commit table version — and serve it to the first query
// without recomputation.
func TestMaintainSpillRestart(t *testing.T) {
	db := sky.Generate(2000, 17)
	tier := newTier(t)
	engA := newMaintainSpillEngine(t, db.Cat, tier)
	res1, err := engA.ExecSQL(boxQuery)
	if err != nil {
		t.Fatal(err)
	}
	before := countOf(t, res1)

	// Commit one row inside the box: maintain mode delta-patches the
	// pooled chain in place instead of invalidating it.
	tbl := db.Cat.MustTable("sky", "photoobj")
	tbl.Append([]catalog.Row{boxRow(t, tbl, int64(1<<60))})
	res2, err := engA.ExecSQL(boxQuery)
	if err != nil {
		t.Fatal(err)
	}
	if got := countOf(t, res2); got != before+1 {
		t.Fatalf("maintained result %d, want %d", got, before+1)
	}
	if res2.Stats.Hits == 0 {
		t.Fatal("post-commit query recomputed instead of hitting the maintained pool")
	}
	stA := engA.Recycler().Snapshot()
	if stA.Maintained == 0 {
		t.Fatalf("commit maintained nothing: %+v", stA)
	}

	// Demote the maintained pool and restart.
	if spillAll(t, engA.Recycler()) == 0 {
		t.Fatal("SpillAll wrote nothing")
	}
	engB := newMaintainSpillEngine(t, db.Cat, tier)
	if n := prewarm(t, engB.Recycler()); n == 0 {
		t.Fatal("prewarm admitted nothing after the maintained spill")
	}
	res3, err := engB.ExecSQL(boxQuery)
	if err != nil {
		t.Fatal(err)
	}
	if got := countOf(t, res3); got != before+1 {
		t.Fatalf("post-restart result %d, want maintained %d", got, before+1)
	}
	if res3.Stats.Hits == 0 {
		t.Fatal("first post-restart query reported no pool hits")
	}
}

// TestMaintainStaleSpillDropped: an image demoted BEFORE a commit
// holds the recipes of pre-maintenance content. Maintenance patches
// only the in-memory pool, and the commit lands after the recycler is
// gone (a crash between demotion and restart), yet prewarm recomputes
// the recipes at the post-commit version: the pre-warmed pool serves
// the post-commit answer.
func TestMaintainStaleSpillDropped(t *testing.T) {
	db := sky.Generate(2000, 17)
	tier := newTier(t)
	engA := newMaintainSpillEngine(t, db.Cat, tier)
	res1, err := engA.ExecSQL(boxQuery)
	if err != nil {
		t.Fatal(err)
	}
	before := countOf(t, res1)
	if spillAll(t, engA.Recycler()) == 0 {
		t.Fatal("SpillAll wrote nothing")
	}
	engA.Recycler().Close()

	tbl := db.Cat.MustTable("sky", "photoobj")
	tbl.Append([]catalog.Row{boxRow(t, tbl, int64(1<<60))})

	engB := newMaintainSpillEngine(t, db.Cat, tier)
	if n := prewarm(t, engB.Recycler()); n == 0 {
		t.Fatal("prewarm admitted nothing")
	}
	res2, err := engB.ExecSQL(boxQuery)
	if err != nil {
		t.Fatal(err)
	}
	if got := countOf(t, res2); got != before+1 {
		t.Fatalf("post-restart result %d, want the post-commit %d", got, before+1)
	}
	if res2.Stats.Hits == 0 {
		t.Fatal("first query after prewarm reported no pool hits")
	}
}

// kvQueries run over kvCatalog; their chains are what the image tests
// write and load.
var kvQueries = []string{
	"SELECT COUNT(*) FROM sys.kv WHERE v BETWEEN 5 AND 55",
	"SELECT COUNT(*) FROM sys.kv WHERE k BETWEEN 3 AND 9 AND v BETWEEN 10 AND 90",
}

// kvCatalog builds one small two-column table.
func kvCatalog(rows int) *catalog.Catalog {
	cat := catalog.New()
	tb := cat.CreateTable("sys", "kv", []catalog.ColDef{
		{Name: "k", Kind: bat.KInt},
		{Name: "v", Kind: bat.KInt},
	})
	r := make([]catalog.Row, rows)
	for i := range r {
		r[i] = catalog.Row{"k": int64(i), "v": int64(i * 37 % 101)}
	}
	tb.Append(r)
	return cat
}

// answers runs kvQueries on eng and renders their results.
func answers(t testing.TB, eng *repro.Engine) []string {
	t.Helper()
	out := make([]string, len(kvQueries))
	for i, q := range kvQueries {
		res, err := eng.ExecSQL(q)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = fmt.Sprint(countOf(t, res))
	}
	return out
}

// frameEnds returns the end offset of every frame in an image: the
// header first, then one per record.
func frameEnds(t testing.TB, image []byte) []int {
	t.Helper()
	var ends []int
	for off := 0; off < len(image); {
		if off+8 > len(image) {
			t.Fatalf("image has a partial frame header at %d", off)
		}
		off += 8 + int(binary.LittleEndian.Uint32(image[off:]))
		ends = append(ends, off)
	}
	if len(ends) == 0 || ends[len(ends)-1] != len(image) {
		t.Fatalf("image does not end on a frame boundary: %v of %d", ends, len(image))
	}
	return ends
}

// TestDamagedImageNeverYieldsWrongEntry: an image truncated at any
// byte, or with one byte of any frame flipped, loads exactly the
// records before the damage and nothing else, and queries over the
// pre-warmed pool still equal naive recompute.
func TestDamagedImageNeverYieldsWrongEntry(t *testing.T) {
	cat := kvCatalog(20)
	tier := newTier(t)
	engA := newSpillEngine(t, cat, tier)
	want := answers(t, engA)
	if spillAll(t, engA.Recycler()) == 0 {
		t.Fatal("SpillAll wrote nothing")
	}
	if got := answers(t, repro.NewEngine(cat)); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("naive %v != recycled %v", got, want)
	}
	image, err := os.ReadFile(tier.path)
	if err != nil {
		t.Fatal(err)
	}
	ends := frameEnds(t, image)
	records := len(ends) - 1

	check := func(what string, damaged []byte, loads int) {
		t.Helper()
		if err := os.WriteFile(tier.path, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		eng := repro.NewEngine(cat, repro.WithRecycler(recycler.Config{Admission: recycler.KeepAll, Spill: tier}))
		defer eng.Recycler().Close()
		if n := prewarm(t, eng.Recycler()); n != loads {
			t.Fatalf("%s: prewarm admitted %d records, want the %d before the damage", what, n, loads)
		}
		if got := answers(t, eng); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: pre-warmed answers %v, naive %v", what, got, want)
		}
	}

	check("intact", image, records)
	for cut := 0; cut < len(image); cut++ {
		loads := 0
		for _, end := range ends[1:] {
			if end <= cut {
				loads++
			}
		}
		check(fmt.Sprintf("truncated at %d", cut), image[:cut], loads)
	}
	for f, end := range ends {
		start := 0
		if f > 0 {
			start = ends[f-1]
		}
		// One byte of the checksum, and one in the middle of the frame.
		for _, at := range []int{start + 5, (start + end) / 2} {
			damaged := slices.Clone(image)
			damaged[at] ^= 0x5a
			check(fmt.Sprintf("frame %d byte %d flipped", f, at), damaged, max(f-1, 0))
		}
	}
}

// TestSpillAllReplacesImage: each drain replaces the image. After a
// second drain over a different pool the image holds only that pool's
// records, and no temporary file is left behind.
func TestSpillAllReplacesImage(t *testing.T) {
	cat := kvCatalog(20)
	tier := newTier(t)
	eng := newSpillEngine(t, cat, tier)
	if _, err := eng.ExecSQL(kvQueries[1]); err != nil {
		t.Fatal(err)
	}
	first := spillAll(t, eng.Recycler())
	eng.Recycler().Reset()
	if _, err := eng.ExecSQL(kvQueries[0]); err != nil {
		t.Fatal(err)
	}
	second := spillAll(t, eng.Recycler())
	if first == second {
		t.Fatalf("both drains wrote %d records; the test needs pools of different sizes", first)
	}
	var loaded []string
	if err := tier.Load(func(rec *recycler.SpillRecord) { loaded = append(loaded, rec.OpName) }); err != nil {
		t.Fatal(err)
	}
	if len(loaded) != second {
		t.Fatalf("image holds %d records, the last drain wrote %d: %v", len(loaded), second, loaded)
	}
	ents, err := os.ReadDir(filepath.Dir(tier.path))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != imageFile {
		t.Fatalf("data dir holds %v, want only %s", ents, imageFile)
	}
}

// TestBootstrapPurgesImage: a fresh lineage bootstrapped over a data
// dir that still holds a previous lineage's image does not serve that
// lineage's results: prewarm recomputes the image's recipes over the
// new catalog, whose data differs, and answers as naive does.
func TestBootstrapPurgesImage(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	old := kvCatalog(20)
	engA := newSpillEngine(t, old, st.Spill())
	answers(t, engA)
	if spillAll(t, engA.Recycler()) == 0 {
		t.Fatal("SpillAll wrote nothing")
	}

	fresh := kvCatalog(12)
	if err := st.Bootstrap(fresh); err != nil {
		t.Fatal(err)
	}
	engB := newSpillEngine(t, fresh, st.Spill())
	expectWarmAnswer(t, engB, repro.NewEngine(fresh), kvQueries[0])
	if got, want := answers(t, engB), answers(t, repro.NewEngine(fresh)); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("answers %v over the new lineage, naive %v", got, want)
	}
}

// TestSpillOldFormatRecordDoesNotLoad: a data dir holding the store's
// former layouts — per-record spill files (spill/*.spl, one record per
// file), an IMG1 pool image (records with a display line and one
// dependency per column) or an IMG2 one (records holding canonical
// operands, table stamps and the result) — boots cold without error.
// All are ignored: nothing pre-warms and queries recompute.
func TestSpillOldFormatRecordDoesNotLoad(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cat := kvCatalog(20)
	if err := st.Bootstrap(cat); err != nil {
		t.Fatal(err)
	}
	want := answers(t, repro.NewEngine(cat))
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// The former layout: a tagged metadata frame and a value frame.
	legacy := filepath.Join(dir, "spill")
	if err := os.MkdirAll(legacy, 0o755); err != nil {
		t.Fatal(err)
	}
	meta := &enc{}
	meta.u32(0x32_4c_50_53) // "SPL2"
	meta.str("sql.bind(s3:sys,s2:kv,s1:v,i0)")
	meta.str("sql.bind")
	val := &enc{}
	encodeValue(val, mal.IntV(7))
	var file bytes.Buffer
	if err := writeFrame(&file, meta.b); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(&file, val.b); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(legacy, "0123456789abcdef.spl"), file.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	cat2, err := st2.Recover()
	if err != nil {
		t.Fatal(err)
	}

	// An IMG1 and an IMG2 image, each with one record binding sys.kv.v
	// at the recovered table's current version, with its result.
	snap, ok := cat2.Pin("sys.kv")
	if !ok {
		t.Fatal("sys.kv not recovered")
	}
	bound := cat2.MustTable("sys", "kv").Column("v").Bind()
	img1 := &enc{}
	img1.str("sql.bind")
	img1.str(`sql.bind("sys","kv","v",0)`)
	img1.i64(int64(time.Millisecond))
	img1.u32(4)
	for _, k := range []string{"s3:sys", "s2:kv", "s1:v", "i0"} {
		img1.u8(0)
		img1.str(k)
	}
	img1.u32(1)
	img1.str("sys.kv")
	img1.str("v")
	img1.u64(snap.Stamp.Created)
	img1.i64(snap.Stamp.Version)
	legacyBATValue(img1, bound)
	img2 := &enc{}
	img2.str("sql.bind")
	img2.i64(int64(time.Millisecond))
	img2.u32(4)
	for _, k := range []string{"s3:sys", "s2:kv", "s1:v", "i0"} {
		img2.u8(0)
		img2.str(k)
	}
	img2.u32(1)
	img2.str("sys.kv")
	img2.u64(snap.Stamp.Created)
	img2.i64(snap.Stamp.Version)
	legacyBATValue(img2, bound)

	eng := newSpillEngine(t, cat2, st2.Spill())
	for _, old := range []struct {
		tag uint32
		rec []byte
	}{{0x31_47_4d_49, img1.b}, {0x32_47_4d_49, img2.b}} { // "IMG1", "IMG2"
		hdr := &enc{}
		hdr.u32(old.tag)
		var img bytes.Buffer
		for _, frame := range [][]byte{hdr.b, old.rec} {
			if err := writeFrame(&img, frame); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, imageFile), img.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		if n := prewarm(t, eng.Recycler()); n != 0 {
			t.Fatalf("prewarm admitted %d records from a former layout", n)
		}
	}
	if got := answers(t, eng); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("answers %v after a cold boot, want %v", got, want)
	}
}

// legacyBATValue appends a BAT value in the layout IMG1 and IMG2
// stored results in: the value kind, a presence byte, head and tail
// vectors and a sortedness flag byte.
func legacyBATValue(e *enc, b *bat.BAT) {
	e.u8(uint8(mal.VBat))
	e.u8(1)
	encodeVector(e, b.Head)
	encodeVector(e, b.Tail)
	e.u8(0)
}

// narrowBoxQuery's box lies inside boxQuery's.
const narrowBoxQuery = "SELECT COUNT(*) FROM sky.photoobj WHERE ra BETWEEN 195.5 AND 197.0 AND dec BETWEEN 2.0 AND 33.0 AND mode = 1"

// groupBoxQuery groups boxQuery's box by status.
const groupBoxQuery = "SELECT status, COUNT(*) FROM sky.photoobj WHERE ra BETWEEN 195.0 AND 215.5 AND dec BETWEEN 2.0 AND 33.0 GROUP BY status"

// rendered formats every result of a statement, column rows in order.
func rendered(t *testing.T, eng *repro.Engine, q string) string {
	t.Helper()
	res, err := eng.ExecSQL(q)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, r := range res.Results {
		v := r.Val.Materialised()
		if v.IsBat() {
			fmt.Fprintf(&sb, "%s=%s; ", r.Name, v.Bat.Dump(0))
		} else {
			fmt.Fprintf(&sb, "%s=%s; ", r.Name, v)
		}
	}
	return sb.String()
}

// TestPrewarmedBoxSubsumes: a pre-warmed select keeps its subsumption
// metadata, so a box narrower than a pre-warmed one is rewritten onto
// it, as it is onto a select a query admitted.
func TestPrewarmedBoxSubsumes(t *testing.T) {
	db := sky.Generate(2000, 17)
	tier := newTier(t)
	cfg := recycler.Config{Admission: recycler.KeepAll, Subsumption: true, Spill: tier}
	engA := repro.NewEngine(db.Cat, repro.WithRecycler(cfg))
	defer engA.Recycler().Close()
	if _, err := engA.ExecSQL(boxQuery); err != nil {
		t.Fatal(err)
	}
	if spillAll(t, engA.Recycler()) == 0 {
		t.Fatal("SpillAll wrote nothing")
	}
	engA.Recycler().Close()

	engB := repro.NewEngine(db.Cat, repro.WithRecycler(cfg))
	defer engB.Recycler().Close()
	if n := prewarm(t, engB.Recycler()); n == 0 {
		t.Fatal("prewarm admitted nothing")
	}
	res, err := engB.ExecSQL(narrowBoxQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Subsumed == 0 {
		t.Fatalf("a box inside a pre-warmed one was not subsumed: %+v", res.Stats)
	}
	want, err := repro.NewEngine(db.Cat).ExecSQL(narrowBoxQuery)
	if err != nil {
		t.Fatal(err)
	}
	if got, w := countOf(t, res), countOf(t, want); got != w {
		t.Fatalf("subsumed answer %d, naive %d", got, w)
	}
}

// TestPrewarmedEntriesMaintain: under SyncMaintain a pre-warmed pool
// carries an insert and a single-row delete as a pool built by running
// the same queries does — its entries have their argument snapshots
// and delta classes — so no more of its entries fall back, and both
// pools answer as naive recompute does after each commit.
func TestPrewarmedEntriesMaintain(t *testing.T) {
	db := sky.Generate(2000, 17)
	tier := newTier(t)
	queries := []string{boxQuery, groupBoxQuery}
	built := newMaintainSpillEngine(t, db.Cat, tier)
	for _, q := range queries {
		rendered(t, built, q)
	}
	if spillAll(t, built.Recycler()) == 0 {
		t.Fatal("SpillAll wrote nothing")
	}
	warm := newMaintainSpillEngine(t, db.Cat, tier)
	if n := prewarm(t, warm.Recycler()); n == 0 {
		t.Fatal("prewarm admitted nothing")
	}
	naive := repro.NewEngine(db.Cat)

	tbl := db.Cat.MustTable("sky", "photoobj")
	inserted := bat.Oid(tbl.NumRows())
	commits := []func(){
		func() { tbl.Append([]catalog.Row{boxRow(t, tbl, int64(1<<60))}) },
		func() { tbl.Delete([]bat.Oid{inserted}) },
	}
	for i, commit := range commits {
		commit()
		for _, q := range queries {
			want := rendered(t, naive, q)
			if got := rendered(t, built, q); got != want {
				t.Fatalf("commit %d: built pool answers %s, naive %s", i, got, want)
			}
			if got := rendered(t, warm, q); got != want {
				t.Fatalf("commit %d: pre-warmed pool answers %s, naive %s", i, got, want)
			}
		}
	}
	b, w := built.Recycler().Snapshot(), warm.Recycler().Snapshot()
	t.Logf("built maintained %d fallback %d entries %d; warm maintained %d fallback %d entries %d", b.Maintained, b.MaintainFallback, b.Entries, w.Maintained, w.MaintainFallback, w.Entries)
	if w.Maintained == 0 {
		t.Fatalf("the pre-warmed pool maintained nothing: %+v", w)
	}
	if w.MaintainFallback > b.MaintainFallback {
		t.Fatalf("%d pre-warmed entries fell back, %d built ones", w.MaintainFallback, b.MaintainFallback)
	}
}
