package trace

import "io"

// Metrics is the process-wide set of latency histogram families
// exported at /metrics. All fields are wait-free Histograms, so any
// engine layer may observe into them from any lock context.
type Metrics struct {
	Parse          Histogram
	Optimize       Histogram
	Execute        Histogram
	RecyclerLookup Histogram
	WriterLockWait Histogram
	ShardLockWait  Histogram
	WALFsync       Histogram
}

// NewMetrics returns an empty metrics set.
func NewMetrics() *Metrics { return &Metrics{} }

// WriteProm renders every histogram family in Prometheus text
// exposition format. Families are emitted in a fixed order; new ones
// are appended at the end (golden-test convention).
func (m *Metrics) WriteProm(w io.Writer) {
	if m == nil {
		m = &Metrics{}
	}
	m.Parse.WriteProm(w, "repro_stage_parse_seconds", "SQL parse+normalize latency.")
	m.Optimize.WriteProm(w, "repro_stage_optimize_seconds", "Plan build and optimizer latency (template-cache misses).")
	m.Execute.WriteProm(w, "repro_stage_execute_seconds", "Query execution wall time.")
	m.RecyclerLookup.WriteProm(w, "repro_stage_recycler_lookup_seconds", "Recycler Entry (pool lookup + subsumption) latency per marked instruction.")
	m.WriterLockWait.WriteProm(w, "repro_lock_writer_wait_seconds", "Recycler writer-lock acquisition wait (contended acquisitions only).")
	m.ShardLockWait.WriteProm(w, "repro_lock_shard_wait_seconds", "Signature-shard read-lock wait on the exact-hit path (contended only).")
	m.WALFsync.WriteProm(w, "repro_wal_fsync_seconds", "WAL fsync batch latency.")
}
