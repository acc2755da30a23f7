// Package repro is a from-scratch Go reproduction of "An Architecture
// for Recycling Intermediates in a Column-store" (Ivanova, Kersten,
// Nes, Gonçalves — SIGMOD 2009 / TODS 2010).
//
// It bundles a MonetDB-style operator-at-a-time column engine
// (BAT storage, binary relational algebra, MAL-like templates and
// interpreter) with the paper's recycler: an optimizer pass that marks
// instructions worth monitoring plus a run-time module that keeps
// their materialised results in a recycle pool, matches upcoming
// instructions against it (exactly or through subsumption) and
// maintains the pool under admission and eviction policies.
//
// Quick start:
//
//	cat := repro.NewCatalog()
//	// ... create tables, load rows (see examples/quickstart) ...
//	eng := repro.NewEngine(cat, repro.WithRecycler(recycler.Config{
//		Admission: recycler.KeepAll,
//	}))
//	tmpl := eng.Compile(buildTemplate()) // marks recyclable instructions
//	res, err := eng.Exec(tmpl, mal.IntV(42))
package repro

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/algebra"
	"repro/internal/bat"
	"repro/internal/catalog"
	"repro/internal/mal"
	"repro/internal/opt"
	"repro/internal/recycler"
	"repro/internal/sqlfe"
	"repro/internal/trace"
)

// NewCatalog creates an empty catalog. See the catalog package for
// table creation, bulk loads and DML.
func NewCatalog() *catalog.Catalog { return catalog.New() }

// Engine executes compiled query templates against a catalog,
// optionally with the recycler enabled.
//
// An Engine is safe for concurrent use: many goroutines (or Session
// handles) may call Exec/ExecSQL against one engine sharing a single
// recycle pool, the paper's multi-user setting. Each query itself runs
// on the calling goroutine, in program order (mal.Run).
type Engine struct {
	cat     *catalog.Catalog
	rec     *recycler.Recycler
	fe      *sqlfe.Frontend
	stmts   stmtCache
	tracer  *trace.Tracer
	queryID atomic.Uint64
	errors  atomic.Uint64
	measure bool
}

// Option configures an Engine at construction time. Options are
// applied in the order given to NewEngine; later options win where
// they overlap (e.g. two WithRecycler calls).
type Option func(*Engine)

// WithRecycler enables recycling with the given configuration.
//
// The cfg fields mirror the paper's knobs: Admission selects
// keepall/crd/adapt (§4.2) with Credits as the k parameter, Eviction
// selects lru/bp/hp (§4.3), MaxBytes/MaxEntries bound the pool,
// Subsumption and CombinedSubsumption enable the §5 matching
// extensions, and Sync picks the update-synchronisation preset
// (invalidate, propagate or maintain, §6). Spill attaches a pool image
// store (internal/store): Recycler.SpillAll writes the pool's recipes
// to it on a graceful drain and a restarted engine recomputes them
// into its pool via Recycler.Prewarm. See docs/TUNING.md for guidance
// on choosing a combination.
func WithRecycler(cfg recycler.Config) Option {
	return func(e *Engine) { e.rec = recycler.New(e.cat, cfg) }
}

// WithOptimizer selects the optimizer configuration the engine's SQL
// front end compiles with — which normalization passes run (CSE,
// commutative argument ordering, SQL query normalization) and which
// are skipped. The default (zero Options) runs the full pipeline;
// disabling passes is for experiments that need the denormalized plan
// shapes (e.g. measuring the recycler's run-time dedup of duplicates
// the optimizer would otherwise merge). See docs/TUNING.md.
func WithOptimizer(opts opt.Options) Option {
	return func(e *Engine) { e.fe = sqlfe.NewFrontendOpt(e.cat, opts) }
}

// WithMeasure enables per-instruction timing of marked instructions
// even without a recycler, so naive runs report potential savings
// (QueryStats.TimeInMarked). It adds one clock read per marked
// instruction; leave it off for throughput benchmarks of naive runs.
func WithMeasure() Option {
	return func(e *Engine) { e.measure = true }
}

// WithTracer attaches the observability layer (internal/trace): every
// query is recorded into the tracer's recent ring (and slow-query log
// past its threshold), per-stage latencies feed its histograms, and
// the recycler reports lock waits and commit-maintenance summaries
// to it. Without a tracer the engine takes the nil-recorder
// fast path — no clock reads beyond the pre-existing ones.
func WithTracer(t *trace.Tracer) Option {
	return func(e *Engine) { e.tracer = t }
}

// NewEngine creates an engine over the catalog.
func NewEngine(cat *catalog.Catalog, opts ...Option) *Engine {
	e := &Engine{cat: cat, fe: sqlfe.NewFrontend(cat), stmts: stmtCache{m: make(map[string]cachedStmt)}}
	for _, o := range opts {
		o(e)
	}
	if e.tracer != nil && e.rec != nil {
		e.rec.SetTracer(e.tracer)
	}
	return e
}

// Tracer returns the engine's tracer, or nil when tracing is off.
func (e *Engine) Tracer() *trace.Tracer { return e.tracer }

// Recycler returns the engine's recycler, or nil when disabled.
func (e *Engine) Recycler() *recycler.Recycler { return e.rec }

// Catalog returns the engine's catalog.
func (e *Engine) Catalog() *catalog.Catalog { return e.cat }

// Compile runs the optimizer pipeline (constant folding, dead code
// elimination, recycler marking) over a freshly built template.
func (e *Engine) Compile(t *mal.Template) *mal.Template {
	return opt.Optimize(t, opt.Options{})
}

// ExecResult carries a statement's outcome: a query's exported
// results and statistics, or a write's verb and row count.
type ExecResult struct {
	Results []mal.Result
	Stats   mal.QueryStats
	// Op is "insert" or "delete" for a write and empty for a query;
	// RowsAffected is the number of rows the write inserted or deleted.
	Op           string
	RowsAffected int
}

// ExecSQL runs one SQL statement. A SELECT compiles through the
// template cache and executes: literals are factored into template
// parameters, so repeated shapes share one template and the recycler
// can match across instances (paper §2.2). An INSERT or DELETE commits
// through the catalog (Table.AppendColumns / Table.Delete), so the
// recycler's commit listeners and the durability hook see it like any
// in-process update (§6).
//
// A SELECT text seen before is served from the engine's exact-text
// statement cache: the stored template and parameters re-run with no
// front-end work at all.
func (e *Engine) ExecSQL(src string) (*ExecResult, error) {
	res, _, err := e.execSQL(src, false)
	return res, err
}

// ExecSQLTraced is ExecSQL returning the per-instruction query trace
// as well. The trace is non-nil only for a query on an engine with a
// tracer (WithTracer); EXPLAIN ANALYZE and the server's ?trace=1 path
// build on it.
func (e *Engine) ExecSQLTraced(src string) (*ExecResult, *trace.QueryTrace, error) {
	return e.execSQL(src, true)
}

func (e *Engine) execSQL(src string, wantTrace bool) (*ExecResult, *trace.QueryTrace, error) {
	if st, ok := e.stmts.get(src); ok {
		return e.exec(st.tmpl, st.params, src, wantTrace, 0, 0)
	}
	t0 := time.Now()
	stmt, err := sqlfe.ParseStatement(src)
	if err != nil {
		e.errors.Add(1)
		return nil, nil, err
	}
	var res *ExecResult
	switch s := stmt.(type) {
	case *sqlfe.Query:
		tmpl, params, tm, err := e.compileQuery(s, t0)
		if err != nil {
			return nil, nil, err
		}
		e.stmts.put(src, cachedStmt{tmpl, params})
		return e.exec(tmpl, params, src, wantTrace, tm.Parse, tm.Optimize)
	case *sqlfe.Insert:
		res, err = e.insert(s)
	case *sqlfe.Delete:
		res, err = e.delete(s)
	}
	if err != nil {
		e.errors.Add(1)
	}
	return res, nil, err
}

// insert applies a parsed INSERT.
func (e *Engine) insert(s *sqlfe.Insert) (*ExecResult, error) {
	t, cols, err := s.Bind(e.cat)
	if err != nil {
		return nil, err
	}
	if _, err := t.AppendColumns(cols); err != nil {
		return nil, err
	}
	return &ExecResult{Op: "insert", RowsAffected: len(s.Rows)}, nil
}

// delete applies a parsed DELETE: one probe when the column carries a
// unique key index, one equality filter over the bound column (the
// same kernel a uselect runs) otherwise. Bind snapshots the live rows
// and LookupKey skips tombstones, so a deleted row is never deleted
// twice.
func (e *Engine) delete(s *sqlfe.Delete) (*ExecResult, error) {
	t, col, v, err := s.Bind(e.cat)
	if err != nil {
		return nil, err
	}
	var oids []bat.Oid
	if v.Kind == mal.VInt && t.HasKeyIndex(col.Name) {
		if oid, ok := t.LookupKey(col.Name, v.I); ok {
			oids = []bat.Oid{oid}
		}
	} else {
		eq, _ := mal.FilterPred("algebra.uselect", []mal.Value{{}, v}) // a filter name with its arity: always ok
		rows := algebra.Filter(col.Bind(), eq)
		oids = make([]bat.Oid, rows.Len())
		for i := range oids {
			oids[i] = bat.OidAt(rows.Head, i)
		}
	}
	t.Delete(oids)
	return &ExecResult{Op: "delete", RowsAffected: len(oids)}, nil
}

// CompileSQL parses a SELECT and returns the cached template plus this
// instance's parameter values, without executing (and without the
// statement cache). Failed compiles count toward EngineStats.Errors,
// like failed executions.
func (e *Engine) CompileSQL(src string) (*mal.Template, []mal.Value, error) {
	t0 := time.Now()
	q, err := sqlfe.Parse(src)
	if err != nil {
		e.errors.Add(1)
		return nil, nil, err
	}
	tmpl, params, _, err := e.compileQuery(q, t0)
	return tmpl, params, err
}

// compileQuery compiles a query parsed since start through the front
// end's shape cache; when a tracer is attached the parse/optimize
// histograms are fed here.
func (e *Engine) compileQuery(q *sqlfe.Query, start time.Time) (*mal.Template, []mal.Value, sqlfe.CompileTiming, error) {
	tmpl, params, tm, err := e.fe.CompileQuery(q, start)
	if err != nil {
		e.errors.Add(1)
		return nil, nil, tm, err
	}
	if e.tracer != nil {
		m := e.tracer.Metrics()
		m.Parse.Observe(tm.Parse)
		if !tm.CacheHit {
			m.Optimize.Observe(tm.Optimize)
		}
	}
	return tmpl, params, tm, nil
}

// Exec runs a compiled template with the given parameters.
func (e *Engine) Exec(t *mal.Template, params ...mal.Value) (*ExecResult, error) {
	res, _, err := e.exec(t, params, "", false, 0, 0)
	return res, err
}

// ExecTraced is Exec returning the per-instruction query trace as
// well; sql labels the trace.
func (e *Engine) ExecTraced(sql string, t *mal.Template, params ...mal.Value) (*ExecResult, *trace.QueryTrace, error) {
	return e.exec(t, params, sql, true, 0, 0)
}

// exec is the shared execution body. When a tracer is attached every
// query gets a recorder — the recent ring and slow-query log see all
// traffic, not just explicitly traced calls — and wantTrace merely
// controls whether the finished trace is returned to the caller.
func (e *Engine) exec(t *mal.Template, params []mal.Value, sql string, wantTrace bool, parse, optimize time.Duration) (*ExecResult, *trace.QueryTrace, error) {
	qid := e.queryID.Add(1)
	ctx := &mal.Ctx{Cat: e.cat, QueryID: qid, Measure: e.measure}
	var rec *trace.Recorder
	if e.tracer != nil {
		rec = trace.NewRecorder(qid, sql, len(t.Instrs))
		rec.SetStages(parse, optimize)
		ctx.Trace = rec
		ctx.Metrics = e.tracer.Metrics()
	}
	if e.rec != nil {
		ctx.Hook = e.rec
		e.rec.BeginQuery(qid, t.ID)
		defer e.rec.EndQuery(qid)
	}
	if err := mal.Run(ctx, t, params...); err != nil {
		e.errors.Add(1)
		return nil, nil, err
	}
	var qt *trace.QueryTrace
	if rec != nil {
		qt = rec.Finish(t.Name, ctx.Stats.Elapsed)
		e.tracer.FinishQuery(qt)
		if !wantTrace {
			qt = nil
		}
	}
	return &ExecResult{Results: ctx.Results, Stats: ctx.Stats}, qt, nil
}

// EngineStats is a point-in-time snapshot of everything an operator
// needs to judge the engine's health: query counters, the recycle
// pool's utilisation and lock-contention telemetry (writer-lock and
// hit-path shard-lock waits, see recycler.Stats), the admission
// policy's decisions and the SQL template cache. Recycler/Admission
// are zero-valued (with Recycling=false) when the engine runs naive.
type EngineStats struct {
	// Queries counts query ids handed out (started queries); Errors
	// counts compiles or executions that returned an error.
	Queries uint64
	Errors  uint64
	// ActiveQueries is the number of queries currently executing under
	// the recycler's pin set (0 when recycling is disabled).
	ActiveQueries int

	Recycling bool
	Recycler  recycler.Stats
	Admission recycler.AdmissionStats

	// TemplateCache reports the SQL front end's shape cache.
	TemplateCache sqlfe.CacheStats
	// Statements reports the exact-text statement cache in front of it.
	Statements StatementStats
}

// StatementStats is a snapshot of the engine's statement cache.
type StatementStats struct {
	Hits   uint64 // SELECTs re-run from a cached text
	Misses uint64 // SELECTs compiled through the front end and cached
	Texts  int    // distinct SQL texts cached
}

// StatsSnapshot captures the engine-wide statistics. It is safe to
// call concurrently with running queries; the counters are snapshotted
// under the respective component locks (the recycler takes its writer
// lock briefly; hit-path counters are read atomically), not atomically
// across components.
func (e *Engine) StatsSnapshot() EngineStats {
	s := EngineStats{
		Queries:       e.queryID.Load(),
		Errors:        e.errors.Load(),
		TemplateCache: e.fe.CacheStats(),
		Statements:    e.stmts.stats(),
	}
	if e.rec != nil {
		s.Recycling = true
		s.Recycler = e.rec.Snapshot()
		s.Admission = e.rec.AdmissionStats()
		s.ActiveQueries = e.rec.ActiveQueries()
	}
	return s
}

// Session is a lightweight per-client handle onto a shared Engine —
// the unit the multi-user experiments hand to each simulated client.
// Sessions add per-client counters on top of the engine's shared
// state; any number of sessions may execute concurrently.
type Session struct {
	e *Engine

	mu      sync.Mutex
	queries int
	hits    int
	marked  int
	elapsed time.Duration
}

// NewSession opens a client session on the engine.
func (e *Engine) NewSession() *Session { return &Session{e: e} }

// ExecSQL executes one SQL statement on the session's engine. Only
// queries count toward the session's statistics.
func (s *Session) ExecSQL(src string) (*ExecResult, error) {
	res, err := s.e.ExecSQL(src)
	s.note(res)
	return res, err
}

// Exec runs a compiled template on the session's engine.
func (s *Session) Exec(t *mal.Template, params ...mal.Value) (*ExecResult, error) {
	res, err := s.e.Exec(t, params...)
	s.note(res)
	return res, err
}

func (s *Session) note(res *ExecResult) {
	if res == nil || res.Op != "" {
		return // failed, or a write: only queries count
	}
	s.mu.Lock()
	s.queries++
	s.hits += res.Stats.HitsNonBind
	s.marked += res.Stats.MarkedNonBind
	s.elapsed += res.Stats.Elapsed
	s.mu.Unlock()
}

// SessionStats summarises the queries a session has executed.
type SessionStats struct {
	Queries      int
	Hits         int           // non-bind pool hits
	Marked       int           // non-bind monitored instructions (potential hits)
	SumQueryTime time.Duration // sum of per-query elapsed times
}

// Stats returns the session's accumulated counters.
func (s *Session) Stats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SessionStats{Queries: s.queries, Hits: s.hits, Marked: s.marked, SumQueryTime: s.elapsed}
}

// stmtCacheLimit bounds the statement cache.
const stmtCacheLimit = 1024

// stmtCache keys SELECTs on their exact SQL text: a repeated text
// skips lexing, parsing, normalization and parameter extraction and
// re-runs the stored template with the stored parameters. Only SELECTs
// enter — every INSERT text is new, and caching writes would push hot
// queries out. When full, an arbitrary entry is dropped (map iteration
// order), good enough for entries that are all equally cheap to
// rebuild.
type stmtCache struct {
	mu     sync.Mutex
	m      map[string]cachedStmt
	hits   atomic.Uint64
	misses atomic.Uint64
}

type cachedStmt struct {
	tmpl   *mal.Template
	params []mal.Value
}

func (c *stmtCache) get(src string) (cachedStmt, bool) {
	c.mu.Lock()
	st, ok := c.m[src]
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
	}
	return st, ok
}

func (c *stmtCache) put(src string, st cachedStmt) {
	c.misses.Add(1)
	c.mu.Lock()
	if _, ok := c.m[src]; !ok && len(c.m) >= stmtCacheLimit {
		for k := range c.m {
			delete(c.m, k)
			break
		}
	}
	c.m[src] = st
	c.mu.Unlock()
}

func (c *stmtCache) stats() StatementStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return StatementStats{Hits: c.hits.Load(), Misses: c.misses.Load(), Texts: len(c.m)}
}
