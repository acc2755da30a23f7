package sqlfe

import (
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/mal"
	"repro/internal/opt"
)

// Frontend compiles SQL text into cached query templates. The cache
// keys on the *normalized* query shape — the text parsed, normalized
// (canonical conjunct order, merged range pairs; see Normalize) and
// then literal-stripped — so different spellings of one parametrised
// query reuse one template, exactly as the paper's SQL front end does
// (§2.2), and semantically equal texts that merely render differently
// do too. This is what lets the recycler match instructions across
// instances and across spellings.
type Frontend struct {
	cat  *catalog.Catalog
	opts opt.Options
	// optStats accumulates optimizer pass counters (CSE merges,
	// commuted instructions) across every compile this front end runs.
	optStats opt.Stats

	mu           sync.Mutex
	cache        map[string]*mal.Template
	hits, misses int // read through CacheStats
}

// NewFrontend creates a front end over the catalog with the default
// optimizer pipeline (all normalization passes on).
func NewFrontend(cat *catalog.Catalog) *Frontend {
	return NewFrontendOpt(cat, opt.Options{})
}

// NewFrontendOpt creates a front end with an explicit optimizer
// configuration. opts.Stats is ignored: the front end installs its own
// collector (see CacheStats).
func NewFrontendOpt(cat *catalog.Catalog, opts opt.Options) *Frontend {
	f := &Frontend{cat: cat, opts: opts, cache: make(map[string]*mal.Template)}
	f.opts.Stats = &f.optStats
	return f
}

// CompileTiming reports where a compile spent its time, for the
// observability layer's parse/optimize stage histograms.
type CompileTiming struct {
	// Parse covers parse, normalization and (on cache hits) parameter
	// extraction — the per-text front-end work.
	Parse time.Duration
	// Optimize covers plan build plus the optimizer passes; zero on
	// cache hits (the cached template paid it once).
	Optimize time.Duration
	// CacheHit reports whether the template came from the shape cache.
	CacheHit bool
}

// Compile parses the SQL text and returns the (cached) template plus
// this instance's parameter values.
func (f *Frontend) Compile(src string) (*mal.Template, []mal.Value, error) {
	tmpl, params, _, err := f.CompileTimed(src)
	return tmpl, params, err
}

// CompileTimed is Compile plus stage timing. The clock reads cost a
// few tens of nanoseconds against parse work in the microseconds, so
// there is no untimed variant.
func (f *Frontend) CompileTimed(src string) (*mal.Template, []mal.Value, CompileTiming, error) {
	t0 := time.Now()
	q, err := Parse(src)
	if err != nil {
		return nil, nil, CompileTiming{Parse: time.Since(t0)}, err
	}
	return f.CompileQuery(q, t0)
}

// CompileQuery is CompileTimed for a query the caller parsed itself,
// starting at start: the reported Parse stage runs from start, so it
// covers the caller's parse too.
func (f *Frontend) CompileQuery(q *Query, start time.Time) (*mal.Template, []mal.Value, CompileTiming, error) {
	var tm CompileTiming
	if !f.opts.SkipNormalizeSQL {
		q = Normalize(q)
	}
	shape := q.Shape()

	f.mu.Lock()
	cached := f.cache[shape]
	f.mu.Unlock()
	if cached != nil {
		// Extract this instance's parameter values without rebuilding
		// (or re-optimizing) the plan. Parameter extraction follows
		// the normalized predicate order, so the values line up with
		// the cached template's parameter slots no matter how this
		// text spelled its conjuncts — and the optimizer-pass
		// counters only ever count work on templates that live.
		params, err := ExtractParams(f.cat, q)
		tm.Parse = time.Since(start)
		tm.CacheHit = true
		if err != nil {
			return nil, nil, tm, err
		}
		f.mu.Lock()
		f.hits++
		f.mu.Unlock()
		return cached, params, tm, nil
	}
	tm.Parse = time.Since(start)

	o0 := time.Now()
	tmpl, params, err := CompileOpt(f.cat, q, f.opts)
	tm.Optimize = time.Since(o0)
	if err != nil {
		return nil, nil, tm, err
	}
	f.mu.Lock()
	f.misses++
	if prev := f.cache[shape]; prev != nil {
		// A concurrent compile published the shape first; keep the
		// winner so every caller shares one template instance.
		tmpl = prev
	} else {
		f.cache[shape] = tmpl
	}
	f.mu.Unlock()
	return tmpl, params, tm, nil
}

// CacheSize returns the number of cached templates.
func (f *Frontend) CacheSize() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.cache)
}

// CacheStats is a point-in-time snapshot of the template cache and the
// optimizer work done on its behalf.
type CacheStats struct {
	Size   int // distinct normalized query shapes cached
	Hits   int // compiles served from the cache
	Misses int // compiles that built a fresh template

	// CSEMerged counts instructions removed by common-subexpression
	// elimination across all compiles; Commuted counts commutative
	// instructions whose arguments were reordered into canonical form.
	CSEMerged int64
	Commuted  int64
}

// CacheStats returns the template-cache counters under the cache lock.
func (f *Frontend) CacheStats() CacheStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return CacheStats{
		Size:      len(f.cache),
		Hits:      f.hits,
		Misses:    f.misses,
		CSEMerged: f.optStats.CSEMerged.Load(),
		Commuted:  f.optStats.Commuted.Load(),
	}
}
