// Fixture package for lockorder, typechecked as
// "repro/internal/trace" so the TraceRecorderFuncs invariant table
// applies. It mirrors only the surface the rule names: the Recorder
// and Tracer mutators (forbidden under the recycler writer lock and
// the catalog write lock) and the wait-free Histogram (the sanctioned
// in-lock observation, deliberately absent from the table).
package trace

import "time"

// Recorder mirrors the per-query span recorder.
type Recorder struct {
	spans  []int
	events []string
}

func (r *Recorder) EndSpan(pc int)                   { r.spans = append(r.spans, pc) }
func (r *Recorder) SetRecycle(pc int, reason string) { r.events = append(r.events, reason) }
func (r *Recorder) SetAdmission(pc int, res string)  { r.events = append(r.events, res) }
func (r *Recorder) SetParents(pc int, deps []int)    { r.spans = append(r.spans, deps...) }
func (r *Recorder) SetStages(parse, opt time.Duration) {
	r.spans = append(r.spans, int(parse+opt))
}
func (r *Recorder) Finish(name string, d time.Duration) *Recorder {
	r.events = append(r.events, name)
	return r
}

// Tracer mirrors the engine-wide trace sink.
type Tracer struct{ events []string }

func (t *Tracer) Event(kind, detail string) { t.events = append(t.events, kind+detail) }
func (t *Tracer) FinishQuery(qt *Recorder)  { t.events = append(t.events, "finish") }

// Histogram mirrors the wait-free latency histogram: Observe is the
// one trace call sanctioned inside lock-critical sections.
type Histogram struct{ n uint64 }

func (h *Histogram) Observe(d time.Duration) { h.n++ }
