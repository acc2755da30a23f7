package bench

import (
	"time"

	"repro"
	"repro/internal/catalog"
	"repro/internal/mal"
	"repro/internal/recycler"
)

// Runner executes hand-built templates on one repro.Engine, one query
// at a time (each in program order, as every query runs): the paper's
// single-threaded experiments define admission and eviction in terms
// of program-order execution. A recycled and a naive runner execute
// the identical per-instruction kernels, so the ratios the paper
// reports isolate recycling.
type Runner struct {
	*repro.Engine
}

// NewNaive builds a runner without recycling (optionally measuring
// marked-instruction time for potential-savings reporting).
func NewNaive(cat *catalog.Catalog, measure bool) *Runner {
	var opts []repro.Option
	if measure {
		opts = append(opts, repro.WithMeasure())
	}
	return &Runner{repro.NewEngine(cat, opts...)}
}

// NewRecycled builds a runner with a fresh recycler. The recycler
// listens to the catalog until Close.
func NewRecycled(cat *catalog.Catalog, cfg recycler.Config) *Runner {
	return &Runner{repro.NewEngine(cat, repro.WithRecycler(cfg))}
}

// Close detaches the runner's recycler from the catalog and empties its
// pool, so a retired runner does not stay reachable from a catalog that
// outlives it. It is a no-op for naive runners.
func (r *Runner) Close() {
	if rec := r.Recycler(); rec != nil {
		rec.Close()
	}
}

// MustRun executes one query instance and returns its results and
// statistics, panicking on error (experiment code paths).
func (r *Runner) MustRun(tmpl *mal.Template, params ...mal.Value) *repro.ExecResult {
	res, err := r.Exec(tmpl, params...)
	if err != nil {
		panic(err)
	}
	return res
}

// PoolBytes returns the recycle pool memory, 0 for naive runners.
func (r *Runner) PoolBytes() int64 {
	if rec := r.Recycler(); rec != nil {
		return rec.PoolBytes()
	}
	return 0
}

// PoolEntries returns the number of cache lines, 0 for naive runners.
func (r *Runner) PoolEntries() int {
	if rec := r.Recycler(); rec != nil {
		return rec.PoolLen()
	}
	return 0
}

// Warmup executes the given (template, params) pairs once to touch all
// persistent columns, then resets the recycle pool — the experimental
// preparation the paper describes (§7): factor out IO, start from an
// empty pool.
func (r *Runner) Warmup(queries []WarmupQuery) {
	for _, q := range queries {
		r.MustRun(q.Templ, q.Params...)
	}
	if rec := r.Recycler(); rec != nil {
		rec.Reset()
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
