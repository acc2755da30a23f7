package bench

import (
	"fmt"
	"io"
	"math/rand"
	"text/tabwriter"
	"time"

	"repro"
	"repro/internal/mal"
	"repro/internal/opt"
	"repro/internal/recycler"
	"repro/internal/tpch"
)

// --- Table II ---------------------------------------------------------

// Table2Row reproduces one row of the paper's Table II: commonality
// characteristics and recycler savings of a TPC-H query.
type Table2Row struct {
	QNum   int
	Marked int // monitored instructions (binds excluded)
	// IntraPct / InterPct: percentage of monitored instructions
	// reused within one instance resp. across instances.
	IntraPct float64
	InterPct float64
	// Total: naive execution time; Potential: time in monitored
	// instructions; LocalSav/GlobalSav: measured savings.
	Total     time.Duration
	Potential time.Duration
	LocalSav  time.Duration
	GlobalSav time.Duration
}

// Table2 regenerates Table II: for every query it measures a naive
// run, a first recycled instance (intra-query reuse) and a second
// instance with fresh parameters (inter-query reuse).
func Table2(db *tpch.DB, seed int64) []Table2Row {
	// The paper's Table II measures run-time reuse over plans that
	// still carry their duplicate sub-plans (MonetDB's plan generator
	// did not CSE). The default pipeline now merges those duplicates
	// at compile time, which would zero the intra-query column, so the
	// reproduction compiles with CSE disabled.
	defs := tpch.QueriesOpt(opt.Options{SkipCSE: true})
	rows := make([]Table2Row, 0, len(defs))
	rng := rand.New(rand.NewSource(seed))
	for _, d := range defs {
		p1 := d.Params(rng)
		p2 := d.Params(rng)

		naive := NewNaive(db.Cat, true)
		naive.MustRun(d.Templ, p1...) // warm caches / page in columns
		nres := naive.MustRun(d.Templ, p1...)

		rec := NewRecycled(db.Cat, recycler.Config{Admission: recycler.KeepAll})
		rec.Warmup([]WarmupQuery{{Templ: d.Templ, Params: p1}})
		c1 := rec.MustRun(d.Templ, p1...)
		c2 := rec.MustRun(d.Templ, p2...)
		rec.Close()

		marked := d.Templ.MarkedCount(true)
		intra := float64(c1.Stats.HitsNonBind)
		inter := float64(c2.Stats.HitsNonBind) - intra
		if inter < 0 {
			inter = 0
		}
		rows = append(rows, Table2Row{
			QNum:      d.Num,
			Marked:    marked,
			IntraPct:  100 * intra / float64(marked),
			InterPct:  100 * inter / float64(marked),
			Total:     nres.Stats.Elapsed,
			Potential: nres.Stats.TimeInMarked,
			LocalSav:  c1.Stats.SavedLocal,
			GlobalSav: c2.Stats.SavedGlobal,
		})
	}
	return rows
}

// PrintTable2 renders the rows in the paper's layout.
func PrintTable2(w io.Writer, rows []Table2Row) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Query\t#\tIntra%\tInter%\tTotal\tPot.\tLocal\tGlob.")
	for _, r := range rows {
		fmt.Fprintf(tw, "Q%d\t%d\t%.1f\t%.1f\t%v\t%v\t%v\t%v\n",
			r.QNum, r.Marked, r.IntraPct, r.InterPct,
			r.Total.Round(time.Microsecond), r.Potential.Round(time.Microsecond),
			r.LocalSav.Round(time.Microsecond), r.GlobalSav.Round(time.Microsecond))
	}
	tw.Flush()
}

// --- Figs. 4–5: micro-benchmark query profiles -------------------------

// ProfilePoint is one instance of a 10-instance micro-benchmark run
// (the three stacked diagrams of Figs. 4–5).
type ProfilePoint struct {
	Instance   int
	HitRatio   float64
	Naive      time.Duration
	Recycled   time.Duration
	TotalMem   int64
	ReusedMem  int64
	PoolLines  int
	LocalHits  int
	GlobalHits int
}

// MicroProfile runs `instances` instances of query qnum with fresh
// TPC-H parameters under keepall/unlimited recycling and returns the
// per-instance profile (hit ratio, naive vs recycled time, RP memory).
func MicroProfile(db *tpch.DB, qnum, instances int, seed int64) []ProfilePoint {
	// Paper plans (CSE off), like Table2 and MixedWorkload: the
	// per-instance local-hit profile measures the run-time dedup of
	// duplicates the default pipeline would merge at compile time.
	d := tpch.QueryMapOpt(opt.Options{SkipCSE: true})[qnum]
	rng := rand.New(rand.NewSource(seed))
	params := make([][]mal.Value, instances)
	for i := range params {
		params[i] = d.Params(rng)
	}

	naive := NewNaive(db.Cat, false)
	rec := NewRecycled(db.Cat, recycler.Config{Admission: recycler.KeepAll})
	defer rec.Close()
	// Preparation step (§7): touch all columns, then empty the pool.
	naive.MustRun(d.Templ, params[0]...)
	rec.Warmup([]WarmupQuery{{Templ: d.Templ, Params: params[0]}})

	out := make([]ProfilePoint, 0, instances)
	for i := 0; i < instances; i++ {
		nres := naive.MustRun(d.Templ, params[i]...)
		rres := rec.MustRun(d.Templ, params[i]...)
		_, reusedBytes := rec.Recycler().PoolReusedStats()
		out = append(out, ProfilePoint{
			Instance:   i + 1,
			HitRatio:   rres.Stats.HitRatio(),
			Naive:      nres.Stats.Elapsed,
			Recycled:   rres.Stats.Elapsed,
			TotalMem:   rec.Recycler().PoolBytes(),
			ReusedMem:  reusedBytes,
			PoolLines:  rec.Recycler().PoolLen(),
			LocalHits:  rres.Stats.LocalHits,
			GlobalHits: rres.Stats.GlobalHits,
		})
	}
	return out
}

// PrintProfile renders a micro-benchmark profile.
func PrintProfile(w io.Writer, qnum int, pts []ProfilePoint) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Q%d\tHitRatio\tNaive\tRecycler\tRP-Mem(KB)\tReused(KB)\tLines\n", qnum)
	for _, p := range pts {
		fmt.Fprintf(tw, "#%d\t%.2f\t%v\t%v\t%d\t%d\t%d\n",
			p.Instance, p.HitRatio,
			p.Naive.Round(time.Microsecond), p.Recycled.Round(time.Microsecond),
			p.TotalMem/1024, p.ReusedMem/1024, p.PoolLines)
	}
	tw.Flush()
}

// --- Fig. 6: average improvements --------------------------------------

// Fig6Row summarises a 10-instance batch: naive average, first
// recycled instance, average of the remaining recycled instances.
type Fig6Row struct {
	QNum         int
	NaiveAvg     time.Duration
	RecycleFirst time.Duration
	RecycleAvg   time.Duration
}

// Fig6 computes the Fig. 6 bars for the given queries.
func Fig6(db *tpch.DB, qnums []int, instances int, seed int64) []Fig6Row {
	out := make([]Fig6Row, 0, len(qnums))
	for _, q := range qnums {
		pts := MicroProfile(db, q, instances, seed)
		var naiveSum, recSum time.Duration
		for i, p := range pts {
			naiveSum += p.Naive
			if i > 0 {
				recSum += p.Recycled
			}
		}
		out = append(out, Fig6Row{
			QNum:         q,
			NaiveAvg:     naiveSum / time.Duration(len(pts)),
			RecycleFirst: pts[0].Recycled,
			RecycleAvg:   recSum / time.Duration(len(pts)-1),
		})
	}
	return out
}

// PrintFig6 renders the Fig. 6 summary.
func PrintFig6(w io.Writer, rows []Fig6Row) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Query\tNaive(avg)\tRecycle(first)\tRecycle(avg)")
	for _, r := range rows {
		fmt.Fprintf(tw, "Q%d\t%v\t%v\t%v\n", r.QNum,
			r.NaiveAvg.Round(time.Microsecond), r.RecycleFirst.Round(time.Microsecond), r.RecycleAvg.Round(time.Microsecond))
	}
	tw.Flush()
}

// --- Figs. 7–9: admission policies --------------------------------------

// AdmissionPoint is one (credits, policy) measurement.
type AdmissionPoint struct {
	Credits          int
	Policy           string
	HitRatioToKeep   float64 // hits relative to the keepall baseline
	TotalMem         int64
	ReusedMemPct     float64
	ReusedEntriesPct float64
	BatchTime        time.Duration
}

// MixedWorkload builds the §7.2 batch: `per` instances of each of the
// ten high-overlap queries, interleaved deterministically.
func MixedWorkload(per int, seed int64) []WorkItem {
	qnums := []int{4, 7, 8, 11, 12, 16, 18, 19, 21, 22}
	// Paper plans (CSE off): the multi-query experiments measure the
	// run-time recycler against the plan shapes the paper's MonetDB
	// produced, duplicates included — see the Table2 note above.
	qm := tpch.QueryMapOpt(opt.Options{SkipCSE: true})
	rng := rand.New(rand.NewSource(seed))
	var items []WorkItem
	for i := 0; i < per; i++ {
		for _, qn := range qnums {
			d := qm[qn]
			items = append(items, WorkItem{QNum: qn, Templ: d.Templ, Params: d.Params(rng)})
		}
	}
	rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	return items
}

// WorkItem is one query instance of a batch.
type WorkItem struct {
	QNum   int
	Templ  *mal.Template
	Params []mal.Value
}

// BatchResult aggregates a batch execution.
type BatchResult struct {
	Hits, Potential int
	Elapsed         time.Duration
	TotalMem        int64
	Entries         int
	ReusedMem       int64
	ReusedEntries   int
	// CumHits/CumPotential give cumulative counts after each query
	// (the hit-ratio curves of Figs. 10–11).
	CumHits      []int
	CumPotential []int
	// MemSeries/EntriesSeries sample the pool after each statement
	// (Figs. 12–13).
	MemSeries     []int64
	EntriesSeries []int
}

// RunBatch executes the batch on the runner, collecting aggregates.
func RunBatch(r *Runner, items []WorkItem) *BatchResult {
	res := &BatchResult{}
	start := time.Now()
	for _, it := range items {
		qr := r.MustRun(it.Templ, it.Params...)
		res.Hits += qr.Stats.HitsNonBind
		res.Potential += qr.Stats.MarkedNonBind
		res.CumHits = append(res.CumHits, res.Hits)
		res.CumPotential = append(res.CumPotential, res.Potential)
		res.MemSeries = append(res.MemSeries, r.PoolBytes())
		res.EntriesSeries = append(res.EntriesSeries, r.PoolEntries())
	}
	res.Elapsed = time.Since(start)
	res.TotalMem = r.PoolBytes()
	res.Entries = r.PoolEntries()
	if rec := r.Recycler(); rec != nil {
		res.ReusedEntries, res.ReusedMem = rec.PoolReusedStats()
	}
	return res
}

// AdmissionSweep reproduces Figs. 7–9: it runs the given workload for
// credits 2..maxCredits under keepall, credit and adapt admission and
// reports resource utilisation and performance.
func AdmissionSweep(db *tpch.DB, items []WorkItem, maxCredits int) []AdmissionPoint {
	warm := warmupOf(items)

	keepall := NewRecycled(db.Cat, recycler.Config{Admission: recycler.KeepAll})
	keepall.Warmup(warm)
	base := RunBatch(keepall, items)
	keepall.Close()

	out := []AdmissionPoint{{
		Credits: 0, Policy: "keepall", HitRatioToKeep: 1,
		TotalMem:     base.TotalMem,
		ReusedMemPct: pct(base.ReusedMem, base.TotalMem), ReusedEntriesPct: pct64(base.ReusedEntries, base.Entries),
		BatchTime: base.Elapsed,
	}}
	for credits := 2; credits <= maxCredits; credits++ {
		for _, kind := range []recycler.AdmissionKind{recycler.Credit, recycler.Adapt} {
			r := NewRecycled(db.Cat, recycler.Config{Admission: kind, Credits: credits})
			r.Warmup(warm)
			res := RunBatch(r, items)
			r.Close()
			out = append(out, AdmissionPoint{
				Credits: credits, Policy: kind.String(),
				HitRatioToKeep: ratio(res.Hits, base.Hits),
				TotalMem:       res.TotalMem,
				ReusedMemPct:   pct(res.ReusedMem, res.TotalMem),
				ReusedEntriesPct: pct64(res.ReusedEntries,
					res.Entries),
				BatchTime: res.Elapsed,
			})
		}
	}
	return out
}

func warmupOf(items []WorkItem) []WarmupQuery {
	seen := map[int]bool{}
	var out []WarmupQuery
	for _, it := range items {
		if !seen[it.QNum] {
			seen[it.QNum] = true
			out = append(out, WarmupQuery{Templ: it.Templ, Params: it.Params})
		}
	}
	return out
}

func pct(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

func pct64(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// PrintAdmission renders the admission sweep (Figs. 7–9 data).
func PrintAdmission(w io.Writer, pts []AdmissionPoint) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Policy\tCredits\tHitRatio/KeepAll\tMem(KB)\tReusedMem%\tReusedEntries%\tTime")
	for _, p := range pts {
		fmt.Fprintf(tw, "%s\t%d\t%.2f\t%d\t%.1f\t%.1f\t%v\n",
			p.Policy, p.Credits, p.HitRatioToKeep, p.TotalMem/1024,
			p.ReusedMemPct, p.ReusedEntriesPct, p.BatchTime.Round(time.Millisecond))
	}
	tw.Flush()
}

// --- Figs. 10–11: eviction policies -------------------------------------

// EvictionCurve is one policy/limit combination: the cumulative
// hit-ratio curve over the batch plus the total time relative to the
// naive strategy.
type EvictionCurve struct {
	Policy    string
	LimitPct  int
	HitCurve  []float64
	TimeRatio float64
}

// EvictionSweep reproduces Figs. 10–11. limitKind is "entries" or
// "memory"; limits are percentages of the keepall/unlimited totals.
func EvictionSweep(db *tpch.DB, items []WorkItem, limitKind string, limitPcts []int) []EvictionCurve {
	warm := warmupOf(items)

	// Total resources needed (keepall/unlimited), per §7.3.
	keepall := NewRecycled(db.Cat, recycler.Config{Admission: recycler.KeepAll})
	keepall.Warmup(warm)
	base := RunBatch(keepall, items)
	keepall.Close()

	naive := NewNaive(db.Cat, false)
	naive.Warmup(warm)
	naiveRes := RunBatch(naive, items)

	configs := []struct {
		name string
		adm  recycler.AdmissionKind
		evt  recycler.EvictionKind
	}{
		{"lru", recycler.KeepAll, recycler.EvictLRU},
		{"crd+lru", recycler.Credit, recycler.EvictLRU},
		{"bp", recycler.KeepAll, recycler.EvictBP},
		{"crd+bp", recycler.Credit, recycler.EvictBP},
		{"hp", recycler.KeepAll, recycler.EvictHP},
	}

	curves := []EvictionCurve{{
		Policy: "nolimit", LimitPct: 100,
		HitCurve:  hitCurve(base),
		TimeRatio: float64(base.Elapsed) / float64(naiveRes.Elapsed),
	}}
	for _, pctLimit := range limitPcts {
		for _, cfgDef := range configs {
			cfg := recycler.Config{Admission: cfgDef.adm, Credits: 5, Eviction: cfgDef.evt}
			switch limitKind {
			case "entries":
				cfg.MaxEntries = max(1, base.Entries*pctLimit/100)
			case "memory":
				cfg.MaxBytes = max(1, base.TotalMem*int64(pctLimit)/100)
			default:
				panic("bench: unknown limit kind " + limitKind)
			}
			r := NewRecycled(db.Cat, cfg)
			r.Warmup(warm)
			res := RunBatch(r, items)
			r.Close()
			curves = append(curves, EvictionCurve{
				Policy:    cfgDef.name,
				LimitPct:  pctLimit,
				HitCurve:  hitCurve(res),
				TimeRatio: float64(res.Elapsed) / float64(naiveRes.Elapsed),
			})
		}
	}
	return curves
}

func hitCurve(res *BatchResult) []float64 {
	out := make([]float64, len(res.CumHits))
	for i := range out {
		if res.CumPotential[i] > 0 {
			out[i] = float64(res.CumHits[i]) / float64(res.CumPotential[i])
		}
	}
	return out
}

// PrintEviction renders final hit ratios and time ratios per curve.
func PrintEviction(w io.Writer, curves []EvictionCurve) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Policy\tLimit%\tFinalHitRatio\tTime/Naive")
	for _, c := range curves {
		final := 0.0
		if len(c.HitCurve) > 0 {
			final = c.HitCurve[len(c.HitCurve)-1]
		}
		fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.3f\n", c.Policy, c.LimitPct, final, c.TimeRatio)
	}
	tw.Flush()
}

// --- Figs. 12–13: recycling with updates --------------------------------

// UpdateSeries tracks RP memory and entries across a batch with
// injected update blocks.
type UpdateSeries struct {
	Strategy      string
	MemSeries     []int64
	EntriesSeries []int
	Elapsed       time.Duration
}

// UpdatesSweep reproduces Figs. 12–13: the mixed workload with one
// TPC-H refresh block in the middle of every K queries, run with
// keepall/unlimited and LRU at two memory limits (fractions of the
// keepall peak).
func UpdatesSweep(sf float64, genSeed int64, items []WorkItem, k int) []UpdateSeries {
	run := func(strategy string, cfg recycler.Config) UpdateSeries {
		s := UpdateSeries{Strategy: strategy}
		s.Elapsed = runUpdating(sf, genSeed, cfg, items, k, func(r *Runner, _ *repro.ExecResult) {
			s.MemSeries = append(s.MemSeries, r.PoolBytes())
			s.EntriesSeries = append(s.EntriesSeries, r.PoolEntries())
		})
		return s
	}
	keepall := run("keepall", recycler.Config{Admission: recycler.KeepAll})
	var peak int64
	for _, m := range keepall.MemSeries {
		peak = max(peak, m)
	}
	lru := func(strategy string, maxBytes int64) UpdateSeries {
		return run(strategy, recycler.Config{Admission: recycler.KeepAll, Eviction: recycler.EvictLRU, MaxBytes: maxBytes})
	}
	return []UpdateSeries{keepall, lru("lru/50%", peak/2), lru("lru/20%", peak/5)}
}

// runUpdating runs items on a recycled runner over a freshly generated
// catalog, so updates never accumulate across runs, applying one TPC-H
// refresh block in the middle of every k queries (never when k <= 0).
// observe sees the runner after each refresh block (res nil) and after
// each query. It returns the loop's wall-clock time.
func runUpdating(sf float64, genSeed int64, cfg recycler.Config, items []WorkItem, k int, observe func(r *Runner, res *repro.ExecResult)) time.Duration {
	db := tpch.Generate(sf, genSeed)
	r := NewRecycled(db.Cat, cfg)
	defer r.Close()
	r.Warmup(warmupOf(items))
	start := time.Now()
	for i, it := range items {
		if k > 0 && i > 0 && i%k == k/2 {
			db.UpdateBlock()
			observe(r, nil)
		}
		observe(r, r.MustRun(it.Templ, it.Params...))
	}
	return time.Since(start)
}

// PrintUpdates renders pool memory/entry series samples.
func PrintUpdates(w io.Writer, series []UpdateSeries, every int) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Strategy\tStatement\tRP-Mem(KB)\tEntries")
	for _, s := range series {
		for i := 0; i < len(s.MemSeries); i += every {
			fmt.Fprintf(tw, "%s\t%d\t%d\t%d\n", s.Strategy, i, s.MemSeries[i]/1024, s.EntriesSeries[i])
		}
	}
	tw.Flush()
}

// --- throughput ----------------------------------------------------------

// ThroughputRow compares sustained queries/second with and without
// recycling on the mixed batch — the paper's abstract promises
// improvements in both response time and throughput.
type ThroughputRow struct {
	Strategy string
	Queries  int
	Elapsed  time.Duration
	QPS      float64
	Hits     int // non-bind pool hits
	Entries  int // pool entries after the batch
}

// Throughput runs the batch under the naive and keepall strategies.
func Throughput(db *tpch.DB, items []WorkItem) []ThroughputRow {
	warm := warmupOf(items)
	row := func(name string, r *Runner) ThroughputRow {
		defer r.Close()
		r.Warmup(warm)
		res := RunBatch(r, items)
		return ThroughputRow{
			Strategy: name,
			Queries:  len(items),
			Elapsed:  res.Elapsed,
			QPS:      float64(len(items)) / res.Elapsed.Seconds(),
			Hits:     res.Hits,
			Entries:  res.Entries,
		}
	}
	return []ThroughputRow{
		row("naive", NewNaive(db.Cat, false)),
		row("keepall", NewRecycled(db.Cat, recycler.Config{Admission: recycler.KeepAll})),
		row("adapt+bp", NewRecycled(db.Cat, recycler.Config{
			Admission: recycler.Adapt, Credits: 5, Eviction: recycler.EvictBP,
		})),
	}
}

// PrintThroughput renders the comparison.
func PrintThroughput(w io.Writer, rows []ThroughputRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Strategy\tQueries\tTime\tQPS")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%v\t%.1f\n", r.Strategy, r.Queries, r.Elapsed.Round(time.Millisecond), r.QPS)
	}
	tw.Flush()
}

// --- §6 ablation: invalidation vs delta propagation ----------------------

// SyncAblationRow compares update-synchronisation modes on the same
// volatile workload.
type SyncAblationRow struct {
	Mode    string
	Hits    int
	Elapsed time.Duration
}

// SyncAblation runs the mixed workload with an update block every k
// queries under immediate invalidation (the paper's implemented mode)
// and under delta propagation (§6.3), reporting reuse and total time.
// Propagation must never lose hits relative to invalidation.
func SyncAblation(sf float64, genSeed int64, items []WorkItem, k int) []SyncAblationRow {
	run := func(mode recycler.SyncMode, name string) SyncAblationRow {
		row := SyncAblationRow{Mode: name}
		cfg := recycler.Config{Admission: recycler.KeepAll, Sync: mode}
		row.Elapsed = runUpdating(sf, genSeed, cfg, items, k, func(_ *Runner, res *repro.ExecResult) {
			if res != nil {
				row.Hits += res.Stats.HitsNonBind
			}
		})
		return row
	}
	return []SyncAblationRow{
		run(recycler.SyncInvalidate, "invalidate"),
		run(recycler.SyncPropagate, "propagate"),
	}
}

// PrintSyncAblation renders the comparison.
func PrintSyncAblation(w io.Writer, rows []SyncAblationRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "SyncMode\tHits\tTime")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%v\n", r.Mode, r.Hits, r.Elapsed.Round(time.Millisecond))
	}
	tw.Flush()
}
