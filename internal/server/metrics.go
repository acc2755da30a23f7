package server

import (
	"fmt"
	"io"
	"net/http"
)

// handleMetrics renders the server and engine counters in Prometheus
// text exposition format. Counter names are stable (the /metrics
// golden test pins them); add new metrics at the end of their family.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.WriteMetrics(w)
}

// WriteMetrics writes the Prometheus exposition to w.
func (s *Server) WriteMetrics(w io.Writer) {
	st := s.Stats()

	metric := func(name, typ, help string, v any) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %v\n", name, help, name, typ, name, v)
	}

	metric("repro_server_queries_total", "counter",
		"Query statements accepted past the admission gate.", st.Server.Queries)
	metric("repro_server_execs_total", "counter",
		"DML statements accepted past the admission gate.", st.Server.Execs)
	metric("repro_server_errors_total", "counter",
		"Statements that returned an error.", st.Server.Errors)
	metric("repro_server_rejected_total", "counter",
		"Statements refused at the gate (queue timeout or shutdown).", st.Server.Rejected)
	metric("repro_server_active_statements", "gauge",
		"Statements currently executing.", st.Server.Active)
	metric("repro_server_max_concurrency", "gauge",
		"Admission gate width.", st.Server.MaxConcurrency)
	metric("repro_server_prepared_hits_total", "counter",
		"Statements served from the prepared-statement cache.", st.Server.PreparedHits)
	metric("repro_server_prepared_misses_total", "counter",
		"Statements compiled through the SQL front end.", st.Server.PreparedMisses)
	metric("repro_server_prepared_texts", "gauge",
		"Distinct SQL texts in the prepared-statement cache.", st.Server.PreparedTexts)

	metric("repro_engine_queries_total", "counter",
		"Queries started by the engine.", st.Engine.Queries)
	metric("repro_engine_errors_total", "counter",
		"Engine compiles or executions that failed.", st.Engine.Errors)
	metric("repro_engine_active_queries", "gauge",
		"Queries currently pinning recycle pool entries.", st.Engine.ActiveQueries)
	metric("repro_template_cache_size", "gauge",
		"Distinct query shapes in the SQL template cache.", st.Engine.TemplateCache.Size)
	metric("repro_template_cache_hits_total", "counter",
		"Template compiles served from the shape cache.", st.Engine.TemplateCache.Hits)
	metric("repro_template_cache_misses_total", "counter",
		"Template compiles that built a fresh plan.", st.Engine.TemplateCache.Misses)
	metric("repro_opt_cse_merged_total", "counter",
		"Instructions merged away by common-subexpression elimination.", st.Engine.TemplateCache.CSEMerged)
	metric("repro_opt_commuted_total", "counter",
		"Commutative instructions reordered into canonical argument order.", st.Engine.TemplateCache.Commuted)

	recycling := 0
	if st.Engine.Recycling {
		recycling = 1
	}
	metric("repro_recycler_enabled", "gauge",
		"1 when the engine runs with a recycler.", recycling)
	metric("repro_pool_entries", "gauge",
		"Cache lines currently in the recycle pool.", st.Engine.Recycler.Entries)
	metric("repro_pool_bytes", "gauge",
		"Memory held by pooled intermediates.", st.Engine.Recycler.Bytes)
	metric("repro_pool_reused_entries", "gauge",
		"Live pool entries reused at least once.", st.Engine.Recycler.ReusedEntries)
	metric("repro_pool_reuses_total", "counter",
		"Pool hits served over the recycler lifetime.", st.Engine.Recycler.Reuses)
	metric("repro_pool_admitted_total", "counter",
		"Intermediates admitted to the pool.", st.Engine.Recycler.Admitted)
	metric("repro_pool_evicted_total", "counter",
		"Intermediates evicted from the pool.", st.Engine.Recycler.Evicted)
	metric("repro_pool_invalidated_total", "counter",
		"Intermediates invalidated by updates.", st.Engine.Recycler.Invalidated)
	metric("repro_pool_writer_lock_waits_total", "counter",
		"Recycler writer-lock acquisitions that blocked on contention.", st.Engine.Recycler.WriterLockWaits)
	metric("repro_pool_writer_lock_wait_seconds_total", "counter",
		"Total time spent blocked on the recycler writer lock.", st.Engine.Recycler.WriterLockWait.Seconds())
	metric("repro_pool_shard_lock_waits_total", "counter",
		"Hit-path signature-shard read-lock acquisitions that blocked.", st.Engine.Recycler.ShardLockWaits)
	metric("repro_pool_shard_lock_wait_seconds_total", "counter",
		"Total time spent blocked on signature-shard read locks.", st.Engine.Recycler.ShardLockWait.Seconds())
	metric("repro_pool_spilled_total", "counter",
		"Intermediates written to the pool image at drain.", st.Engine.Recycler.Spilled)
	metric("repro_pool_prewarmed_total", "counter",
		"Pool image records loaded into the pool at startup.", st.Engine.Recycler.Prewarmed)
	metric("repro_pool_maintained_total", "counter",
		"Pool entries a delta rule carried across commits (propagate and maintain presets).", st.Engine.Recycler.Maintained)
	metric("repro_pool_maintain_fallback_total", "counter",
		"Affected entries that invalidated instead of maintaining.", st.Engine.Recycler.MaintainFallback)
	metric("repro_pool_maintain_seconds_total", "counter",
		"Total time spent in commit delta walks.", st.Engine.Recycler.MaintainTime.Seconds())
	metric("repro_pool_delta_rows_total", "counter",
		"Delta rows physically applied to maintained entries.", st.Engine.Recycler.DeltaRows)

	metric("repro_admission_granted_total", "counter",
		"Admission decisions that allowed the intermediate in.", st.Engine.Admission.Granted)
	metric("repro_admission_denied_total", "counter",
		"Admission decisions that kept the intermediate out.", st.Engine.Admission.Denied)
	metric("repro_admission_refunded_total", "counter",
		"Credits returned after failed admissions.", st.Engine.Admission.Refunded)
	metric("repro_admission_promoted_total", "counter",
		"Instructions promoted to unlimited credits (adapt).", st.Engine.Admission.Promoted)
	metric("repro_admission_demoted_total", "counter",
		"Instructions blocked from admission (adapt).", st.Engine.Admission.Demoted)

	// Per-stage latency histograms (all zero when tracing is off; the
	// families render regardless so dashboards never see them vanish).
	s.metrics.WriteProm(w)
}
