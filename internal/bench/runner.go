package bench

import (
	"time"

	"repro/internal/catalog"
	"repro/internal/mal"
	"repro/internal/recycler"
)

// Runner executes hand-built templates against one engine
// configuration, one query at a time: each Run builds a fresh context
// on the sequential interpreter with select-chain fusion off. SQL
// experiments go through repro.Engine instead; Runner exists because
// Engine cannot hold fusion off.
type Runner struct {
	Cat     *catalog.Catalog
	Rec     *recycler.Recycler // nil = naive execution
	Measure bool               // time marked instructions in naive mode
	queryID uint64
}

// NewNaive builds a runner without recycling (optionally measuring
// marked-instruction time for potential-savings reporting).
//
// Runners reproduce the paper's single-threaded experiments, whose
// admission/eviction bookkeeping is defined in terms of program-order
// execution, so they always run the sequential interpreter.
//
// They also disable select-chain fusion: a recycled run of monitored
// instructions never fuses (admission is per instruction), so the
// recycled-vs-naive ratios the paper reports only isolate recycling if
// the naive arm executes the identical per-instruction kernels.
func NewNaive(cat *catalog.Catalog, measure bool) *Runner {
	return &Runner{Cat: cat, Measure: measure}
}

// NewRecycled builds a runner with a fresh recycler. The recycler
// listens to the catalog until Close.
func NewRecycled(cat *catalog.Catalog, cfg recycler.Config) *Runner {
	return &Runner{Cat: cat, Rec: recycler.New(cat, cfg)}
}

// Close detaches the runner's recycler from the catalog and empties its
// pool, so a retired runner does not stay reachable from a catalog that
// outlives it. It is a no-op for naive runners.
func (r *Runner) Close() {
	if r.Rec != nil {
		r.Rec.Close()
	}
}

// Run executes one query instance and returns its context (with
// statistics filled in).
func (r *Runner) Run(tmpl *mal.Template, params ...mal.Value) (*mal.Ctx, error) {
	r.queryID++
	qid := r.queryID
	ctx := &mal.Ctx{Cat: r.Cat, QueryID: qid, Measure: r.Measure, Workers: 1, NoFusion: true}
	if r.Rec != nil {
		ctx.Hook = r.Rec
		r.Rec.BeginQuery(qid, tmpl.ID)
		defer r.Rec.EndQuery(qid)
	}
	err := mal.Run(ctx, tmpl, params...)
	return ctx, err
}

// MustRun is Run that panics on error (experiment code paths).
func (r *Runner) MustRun(tmpl *mal.Template, params ...mal.Value) *mal.Ctx {
	ctx, err := r.Run(tmpl, params...)
	if err != nil {
		panic(err)
	}
	return ctx
}

// PoolBytes returns the recycle pool memory, 0 for naive runners.
func (r *Runner) PoolBytes() int64 {
	if r.Rec == nil {
		return 0
	}
	return r.Rec.PoolBytes()
}

// PoolEntries returns the number of cache lines, 0 for naive runners.
func (r *Runner) PoolEntries() int {
	if r.Rec == nil {
		return 0
	}
	return r.Rec.PoolLen()
}

// Warmup executes the given (template, params) pairs once to touch all
// persistent columns, then resets the recycle pool — the experimental
// preparation the paper describes (§7): factor out IO, start from an
// empty pool.
func (r *Runner) Warmup(queries []WarmupQuery) {
	for _, q := range queries {
		r.MustRun(q.Templ, q.Params...)
	}
	if r.Rec != nil {
		r.Rec.Reset()
	}
}

// WarmupQuery names one warmup execution.
type WarmupQuery struct {
	Templ  *mal.Template
	Params []mal.Value
}

// Timed runs fn and returns its wall-clock duration.
func Timed(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}
