package trace

import (
	"sync"
	"time"
)

// Config sizes a Tracer.
type Config struct {
	// SlowQuery is the slow-query threshold; finished queries at or
	// above it are copied into the slow log. 0 disables the slow log.
	SlowQuery time.Duration
	// RingSize bounds the recent-query ring (default 64). The slow log
	// and the global event ring use the same bound.
	RingSize int
}

// TracerEvent is a process-scoped timed event (commit maintenance
// summary, table drop, ...) kept in the global event ring.
type TracerEvent struct {
	Time   time.Time     `json:"time"`
	Name   string        `json:"name"`
	Dur    time.Duration `json:"dur_ns"`
	Detail string        `json:"detail,omitempty"`
}

// Tracer owns the process-wide observability state: the latency
// histograms, a bounded ring of recent query traces, the slow-query
// log, and a global event ring. All methods are safe for concurrent
// use and nil-receiver safe.
type Tracer struct {
	cfg     Config
	metrics *Metrics

	mu      sync.Mutex
	recent  ring[*QueryTrace]
	slow    ring[*QueryTrace]
	events  ring[TracerEvent]
	queries uint64 // finished queries seen
}

// New builds a Tracer. A zero Config means: no slow log, default ring
// sizes.
func New(cfg Config) *Tracer {
	if cfg.RingSize <= 0 {
		cfg.RingSize = 64
	}
	return &Tracer{
		cfg:     cfg,
		metrics: NewMetrics(),
		recent:  newRing[*QueryTrace](cfg.RingSize),
		slow:    newRing[*QueryTrace](cfg.RingSize),
		events:  newRing[TracerEvent](cfg.RingSize),
	}
}

// Metrics returns the tracer's histogram set (nil if t is nil).
func (t *Tracer) Metrics() *Metrics {
	if t == nil {
		return nil
	}
	return t.metrics
}

// SlowThreshold reports the configured slow-query cutoff.
func (t *Tracer) SlowThreshold() time.Duration {
	if t == nil {
		return 0
	}
	return t.cfg.SlowQuery
}

// FinishQuery files a finished trace into the recent ring (and the
// slow log when it crossed the threshold) and observes the execute
// histogram. qt must be immutable from here on.
func (t *Tracer) FinishQuery(qt *QueryTrace) {
	if t == nil || qt == nil {
		return
	}
	t.metrics.Execute.Observe(qt.Elapsed)
	t.mu.Lock()
	t.queries++
	t.recent.push(qt)
	if t.cfg.SlowQuery > 0 && qt.Elapsed >= t.cfg.SlowQuery {
		t.slow.push(qt)
	}
	t.mu.Unlock()
}

// Event appends to the global event ring. Never call while holding a
// ranked engine lock (machine-checked).
func (t *Tracer) Event(name string, d time.Duration, detail string) {
	if t == nil {
		return
	}
	ev := TracerEvent{Time: time.Now(), Name: name, Dur: d, Detail: detail}
	t.mu.Lock()
	t.events.push(ev)
	t.mu.Unlock()
}

// Recent returns the recent-query ring, most recent first.
func (t *Tracer) Recent() []*QueryTrace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.recent.snapshot()
}

// Slow returns the slow-query log, most recent first.
func (t *Tracer) Slow() []*QueryTrace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.slow.snapshot()
}

// Events returns the global event ring, most recent first.
func (t *Tracer) Events() []TracerEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.events.snapshot()
}

// Queries returns the number of traced queries finished so far.
func (t *Tracer) Queries() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.queries
}

// ring is a fixed-capacity overwrite-oldest buffer. Not synchronized;
// the Tracer guards it with its mutex.
type ring[T any] struct {
	buf  []T
	next int
	full bool
}

func newRing[T any](n int) ring[T] { return ring[T]{buf: make([]T, n)} }

func (r *ring[T]) push(v T) {
	r.buf[r.next] = v
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

// snapshot returns the contents most-recent-first.
func (r *ring[T]) snapshot() []T {
	n := r.next
	if r.full {
		n = len(r.buf)
	}
	out := make([]T, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, r.buf[(r.next-i+len(r.buf))%len(r.buf)])
	}
	return out
}
