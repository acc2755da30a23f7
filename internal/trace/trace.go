// Package trace is the engine's observability layer: an
// allocation-light per-query span recorder threaded through mal.Ctx,
// per-stage latency histograms in Prometheus exposition format, and a
// Tracer that keeps a bounded ring of recent query traces plus a
// slow-query log.
//
// Lock-ordering contract (machine-checked by the lockorder analyzer,
// see internal/analysis): Recorder and Tracer methods may allocate and
// take the tracer's internal mutex, so they must NEVER be called while
// the recycler writer lock (Recycler.mu) or Catalog.mu is held.
// Histogram.Observe is the single exception — it is wait-free and may
// run anywhere, which is what makes lock-wait histograms possible.
//
// The Recorder itself is lock-free: spans are indexed by program
// counter, and the query's own goroutine writes each one and then
// calls Finish.
package trace

import "time"

// Span is one executed MAL instruction inside a query.
type Span struct {
	PC      int           `json:"pc"`
	Op      string        `json:"op"`
	Start   time.Duration `json:"start_ns"` // offset from query start
	Dur     time.Duration `json:"dur_ns"`
	Lookup  time.Duration `json:"lookup_ns,omitempty"` // recycler Entry share of Dur
	RowsIn  int           `json:"rows_in"`
	RowsOut int           `json:"rows_out"`
	Bytes   int64         `json:"bytes"`
	Recycle string        `json:"recycle,omitempty"` // decision reason; "" = unmonitored instr
	Admit   string        `json:"admit,omitempty"`   // admission outcome on the miss path
	Deps    []int         `json:"deps,omitempty"`    // pcs this instruction consumed
}

// Stages breaks a query's wall time into the classic phases.
type Stages struct {
	Parse    time.Duration `json:"parse_ns"`
	Optimize time.Duration `json:"optimize_ns"`
	Execute  time.Duration `json:"execute_ns"`
}

// QueryTrace is the finished, immutable trace of one query. It is
// plain data: safe to marshal, render, or keep in the recent ring.
type QueryTrace struct {
	QueryID  uint64        `json:"query_id"`
	SQL      string        `json:"sql,omitempty"`
	Template string        `json:"template,omitempty"`
	Begin    time.Time     `json:"begin"`
	Elapsed  time.Duration `json:"elapsed_ns"`
	Stages   Stages        `json:"stages"`
	Spans    []Span        `json:"spans"`
}

// Recorder collects the spans of a single query, written by the
// query's goroutine. All methods are nil-receiver
// safe so callers holding an optional recorder need no guard.
type Recorder struct {
	queryID uint64
	sql     string
	start   time.Time
	spans   []Span
	stages  Stages
}

// NewRecorder allocates a recorder for a query with ninstr
// instructions. One slice allocation; spans are filled in place.
func NewRecorder(queryID uint64, sql string, ninstr int) *Recorder {
	return &Recorder{
		queryID: queryID,
		sql:     sql,
		start:   time.Now(),
		spans:   make([]Span, ninstr),
	}
}

// Start returns the query start time (for offsetting external clocks).
func (r *Recorder) Start() time.Time {
	if r == nil {
		return time.Time{}
	}
	return r.start
}

// EndSpan completes the span for pc. Called exactly once per executed
// pc. It sets fields individually so reason fields written earlier
// (SetRecycle, SetAdmission) survive.
func (r *Recorder) EndSpan(pc int, op string, start time.Time, lookup time.Duration, rowsIn, rowsOut int, bytes int64) {
	if r == nil || pc < 0 || pc >= len(r.spans) {
		return
	}
	sp := &r.spans[pc]
	sp.PC = pc
	sp.Op = op
	sp.Start = start.Sub(r.start)
	sp.Dur = time.Since(start)
	sp.Lookup = lookup
	sp.RowsIn = rowsIn
	sp.RowsOut = rowsOut
	sp.Bytes = bytes
}

// SetRecycle records the recycler's lookup decision for pc
// ("hit:exact", "rewrite:subsume-select", "miss", ...).
func (r *Recorder) SetRecycle(pc int, reason string) {
	if r == nil || pc < 0 || pc >= len(r.spans) {
		return
	}
	r.spans[pc].Recycle = reason
}

// SetAdmission records the admission outcome for pc's result
// ("admit:granted", "deny:too-large:refunded", ...). Called by the
// recycler AFTER releasing the writer lock, before the span ends.
func (r *Recorder) SetAdmission(pc int, reason string) {
	if r == nil || pc < 0 || pc >= len(r.spans) {
		return
	}
	r.spans[pc].Admit = reason
}

// SetParents stores the data dependency edges (parents[pc] = pcs it
// consumes) so the trace renders as a tree.
func (r *Recorder) SetParents(parents [][]int) {
	if r == nil {
		return
	}
	for pc, deps := range parents {
		if pc < len(r.spans) {
			r.spans[pc].Deps = deps
		}
	}
}

// SetStages seeds the front-end stage durations (parse, optimize).
func (r *Recorder) SetStages(parse, optimize time.Duration) {
	if r == nil {
		return
	}
	r.stages.Parse = parse
	r.stages.Optimize = optimize
}

// Finish freezes the recorder into an immutable QueryTrace. Call once,
// after the query has completed.
func (r *Recorder) Finish(template string, elapsed time.Duration) *QueryTrace {
	if r == nil {
		return nil
	}
	if elapsed == 0 {
		elapsed = time.Since(r.start)
	}
	st := r.stages
	st.Execute = elapsed
	return &QueryTrace{
		QueryID:  r.queryID,
		SQL:      r.sql,
		Template: template,
		Begin:    r.start,
		Elapsed:  elapsed,
		Stages:   st,
		Spans:    r.spans,
	}
}
