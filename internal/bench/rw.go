package bench

import (
	"fmt"
	"io"
	"math/rand"
	"text/tabwriter"

	"repro"
	"repro/internal/bat"
	"repro/internal/catalog"
	"repro/internal/recycler"
	"repro/internal/sky"
)

// This file implements the mixed read/write workload: the SkyServer
// bounding-box mix interleaved with DML against sky.photoobj at a
// configurable write fraction, run once per update-synchronisation
// mode. It measures what each mode leaves of the pool under churn —
// invalidation throws affected entries away on every commit, so the
// repeating reads keep rebuilding them; propagation saves the shapes
// its delta rules cover; incremental maintenance keeps whole
// select/semijoin/aggregate chains alive. The exact-hit rate over the
// read statements is the headline number, and CI gates maintain
// against invalidate on it.

// RWResult is one sync mode's outcome over the mixed workload.
type RWResult struct {
	Mode      string // "invalidate", "propagate" or "maintain"
	StartRows int    // live sky.photoobj rows when the run began
	Reads     int
	Writes    int
	// Marked/Hits count non-bind monitored instructions and pool hits
	// over the read statements (the warmup pass is excluded).
	Marked int
	Hits   int
	// Recycler counters after the run: what the writes did to the pool.
	Invalidated int64
	Maintained  int64
	Fallback    int64
	DeltaRows   int64
}

// ExactHitRate returns read pool hits over read potential hits.
func (r *RWResult) ExactHitRate() float64 {
	if r.Marked == 0 {
		return 0
	}
	return float64(r.Hits) / float64(r.Marked)
}

// rwStatements samples k distinct bounding-box COUNT statements over
// sky.photoobj. Every statement compiles to a maintainable chain
// (bind, range selects, semijoins, aggr.count), so the workload
// separates the sync modes rather than the eligibility rules.
func rwStatements(k int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, 0, k)
	seen := map[string]bool{}
	for len(out) < k {
		raLo := float64(rng.Intn(640)) * 0.5
		raHi := raLo + float64(rng.Intn(8)+1)*0.5
		decLo := float64(rng.Intn(300))*0.5 - 85
		decHi := decLo + float64(rng.Intn(6)+1)*0.5
		s := fmt.Sprintf(
			"SELECT COUNT(*) FROM sky.photoobj WHERE ra BETWEEN %g AND %g AND dec BETWEEN %g AND %g AND mode = 1",
			raLo, raHi, decLo, decHi)
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// rwRow builds one photoobj row with every column populated (Append
// requires complete rows). ra/dec land inside the sampled footprint
// space so some inserts actually change cached results.
func rwRow(t *catalog.Table, rng *rand.Rand, objid int64) catalog.Row {
	r := catalog.Row{}
	for _, c := range t.Cols {
		switch c.Name {
		case "objid":
			r[c.Name] = objid
		case "ra":
			r[c.Name] = rng.Float64() * 360
		case "dec":
			r[c.Name] = rng.Float64()*180 - 90
		case "mode":
			r[c.Name] = int64(rng.Intn(2) + 1)
		default:
			switch c.KindOf {
			case bat.KInt:
				r[c.Name] = int64(rng.Intn(10000))
			case bat.KFloat:
				r[c.Name] = 10 + rng.Float64()*15
			case bat.KStr:
				r[c.Name] = fmt.Sprintf("rw_%d", objid)
			}
		}
	}
	return r
}

// RWPresets runs the mixed workload once per sync preset — invalidate,
// propagate, maintain, in that order — each on its own catalog from
// gen. The workload appends rows with objids derived from the catalog
// size and seed, so presets sharing one catalog would start from each
// other's leftovers and re-append the same "unique" keys; every preset
// must start from the same freshly generated table.
func RWPresets(gen func() *sky.DB, n int, writeFrac float64, seed int64) []RWResult {
	stmts := rwStatements(12, seed)
	return []RWResult{
		runRW(gen(), stmts, n, writeFrac, seed, "invalidate", recycler.SyncInvalidate),
		runRW(gen(), stmts, n, writeFrac, seed, "propagate", recycler.SyncPropagate),
		runRW(gen(), stmts, n, writeFrac, seed, "maintain", recycler.SyncMaintain),
	}
}

// runRW executes n operations — reads cycling through the statement
// set, writes (row appends and deletions of previously appended rows)
// at writeFrac — against a fresh recycled engine configured with the
// given sync mode. The statement set is executed once beforehand to
// warm the pool; absent writes every read would then hit exactly.
func runRW(db *sky.DB, stmts []string, n int, writeFrac float64, seed int64, mode string, sync recycler.SyncMode) RWResult {
	eng := repro.NewEngine(db.Cat, repro.WithRecycler(recycler.Config{Admission: recycler.KeepAll, Sync: sync}))
	rec := eng.Recycler()
	defer rec.Close()

	exec := func(src string) *repro.ExecResult {
		r, err := eng.ExecSQL(src)
		if err != nil {
			panic(fmt.Sprintf("rw: %q: %v", src, err))
		}
		return r
	}
	for _, s := range stmts {
		exec(s)
	}

	t := db.Cat.Table(sky.Schema, "photoobj")
	rng := rand.New(rand.NewSource(seed))
	nextObjid := int64(0x0500000000000000) + int64(db.Objects) + seed*1_000_000
	var appended []bat.Oid

	res := RWResult{Mode: mode, StartRows: t.NumRows()}
	for i := 0; i < n; i++ {
		if rng.Float64() < writeFrac {
			res.Writes++
			if len(appended) >= 8 && rng.Intn(3) == 0 {
				// Delete a couple of previously appended rows so both
				// delta directions (and their interleavings) occur.
				t.Delete(appended[:2])
				appended = appended[2:]
			} else {
				rows := make([]catalog.Row, 4)
				for j := range rows {
					rows[j] = rwRow(t, rng, nextObjid)
					nextObjid++
				}
				first := t.Append(rows)
				for j := range rows {
					appended = append(appended, first+bat.Oid(j))
				}
			}
			continue
		}
		res.Reads++
		r := exec(stmts[res.Reads%len(stmts)])
		res.Hits += r.Stats.HitsNonBind
		res.Marked += r.Stats.MarkedNonBind
	}

	st := rec.Snapshot()
	res.Invalidated = st.Invalidated
	res.Maintained = st.Maintained
	res.Fallback = st.MaintainFallback
	res.DeltaRows = st.DeltaRows
	return res
}

// PrintRW renders the per-mode comparison.
func PrintRW(w io.Writer, rows []RWResult) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Mode\tStartRows\tReads\tWrites\tExactHits\tPotential\tHitRate\tInvalidated\tMaintained\tFallback\tDeltaRows")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%.1f%%\t%d\t%d\t%d\t%d\n",
			r.Mode, r.StartRows, r.Reads, r.Writes, r.Hits, r.Marked,
			100*r.ExactHitRate(),
			r.Invalidated, r.Maintained, r.Fallback, r.DeltaRows)
	}
	tw.Flush()
}
