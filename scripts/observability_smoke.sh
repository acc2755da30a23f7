#!/usr/bin/env bash
# Observability smoke test against cmd/reprod.
#
# Boots a traced server, issues the same query twice with ?trace=1,
# and asserts that:
#   1. the response carries a trace with one span per instruction, a
#      recycler decision reason on every monitored span and, for the
#      first (compiling) run, a nonzero parse stage,
#   2. the repeat run's monitored spans all report pool hits,
#   3. /debug/queries shows tracing enabled, both queries in the
#      recent ring, and an empty slow log (nothing beats 500ms here;
#      the Go tests cover slow-log capture at a nanosecond threshold),
#   4. /metrics parses as Prometheus exposition text and exposes the
#      stage/lock/IO histogram families with live counts,
#   5. /debug/pprof/ answers on the ops mux.
set -euo pipefail

PORT="${PORT:-18124}"
BASE="http://127.0.0.1:${PORT}"
WORK="$(mktemp -d)"
trap 'if [ -n "${SRV_PID:-}" ]; then kill "$SRV_PID" 2>/dev/null || true; wait "$SRV_PID" 2>/dev/null || true; fi; rm -rf "$WORK" 2>/dev/null || true' EXIT

BOX_QUERY='SELECT COUNT(*) FROM sky.photoobj WHERE ra BETWEEN 195.0 AND 197.5 AND dec BETWEEN 2.0 AND 3.0 AND mode = 1'

go build -o "$WORK/reprod" ./cmd/reprod

wait_healthy() {
  for _ in $(seq 1 50); do
    if curl -sf "$BASE/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.2
  done
  echo "FAIL: server did not become healthy"; exit 1
}

traced_query() {
  curl -sf -X POST "$BASE/query?trace=1" -d "{\"sql\": \"$1\"}"
}

echo "== boot traced server =="
"$WORK/reprod" -db sky -objects 5000 -http "127.0.0.1:${PORT}" >"$WORK/run.log" 2>&1 &
SRV_PID=$!
wait_healthy

echo "== traced query: miss then hit =="
traced_query "$BOX_QUERY" >"$WORK/first.json"
# A trace came back, with spans, and every monitored span carries a
# recycler decision reason.
jq -e '.trace.spans | length > 0' "$WORK/first.json" >/dev/null
jq -e '[.trace.spans[] | select(.recycle != null and .recycle == "")] | length == 0' "$WORK/first.json" >/dev/null
jq -e '.trace.stages.execute_ns > 0' "$WORK/first.json" >/dev/null
# The first run compiled through the SQL front end and reports it.
jq -e '.trace.stages.parse_ns > 0' "$WORK/first.json" >/dev/null

traced_query "$BOX_QUERY" >"$WORK/second.json"
# The repeat is served from the pool: monitored spans exist and all of
# them report a hit (or a subsumption rewrite).
jq -e '[.trace.spans[] | select(.recycle != null and .recycle != "")] | length > 0' "$WORK/second.json" >/dev/null
jq -e '[.trace.spans[] | select(.recycle != null and .recycle != "")
        | select((.recycle | startswith("hit")) or (.recycle | startswith("rewrite")) | not)] | length == 0' \
  "$WORK/second.json" >/dev/null
# Distinct query ids: traces never bleed across requests.
test "$(jq .trace.query_id "$WORK/first.json")" != "$(jq .trace.query_id "$WORK/second.json")"

echo "== /debug/queries =="
curl -sf "$BASE/debug/queries" >"$WORK/debug.json"
jq -e '.tracing == true' "$WORK/debug.json" >/dev/null
jq -e '.slow_threshold_ms == 500' "$WORK/debug.json" >/dev/null
jq -e '.queries >= 2' "$WORK/debug.json" >/dev/null
jq -e '.recent | length >= 2' "$WORK/debug.json" >/dev/null
jq -e '.slow | length == 0' "$WORK/debug.json" >/dev/null  # nothing here beats 500ms

echo "== /metrics exposition =="
curl -sf "$BASE/metrics" >"$WORK/metrics.txt"
hist_families=$(grep -c '^# TYPE repro_.* histogram$' "$WORK/metrics.txt")
if [ "$hist_families" -lt 5 ]; then
  echo "FAIL: only $hist_families histogram families exposed"; exit 1
fi
for fam in repro_stage_parse_seconds repro_stage_execute_seconds \
           repro_stage_recycler_lookup_seconds repro_lock_writer_wait_seconds \
           repro_wal_fsync_seconds; do
  grep -q "^# TYPE ${fam} histogram$" "$WORK/metrics.txt" || { echo "FAIL: missing family $fam"; exit 1; }
  grep -q "^${fam}_bucket{le=\"+Inf\"}" "$WORK/metrics.txt" || { echo "FAIL: $fam has no +Inf bucket"; exit 1; }
  grep -q "^${fam}_count " "$WORK/metrics.txt" || { echo "FAIL: $fam has no _count"; exit 1; }
done
# The traced queries actually landed in the execute histogram.
execute_count=$(awk '/^repro_stage_execute_seconds_count /{print $2}' "$WORK/metrics.txt")
if [ "${execute_count:-0}" -lt 2 ]; then
  echo "FAIL: execute histogram count ${execute_count:-0}, want >= 2"; exit 1
fi
# Every non-comment line is "name{labels} value" or "name value".
if grep -vE '^(#|[A-Za-z_:][A-Za-z0-9_:]*(\{[^}]*\})? [0-9.e+-]+$)' "$WORK/metrics.txt" | grep -q .; then
  echo "FAIL: malformed exposition lines:"; grep -vE '^(#|[A-Za-z_:][A-Za-z0-9_:]*(\{[^}]*\})? [0-9.e+-]+$)' "$WORK/metrics.txt"
  exit 1
fi

echo "== /debug/pprof =="
curl -sf "$BASE/debug/pprof/" | grep -qi 'profile' || { echo "FAIL: pprof index not served"; exit 1; }

kill -TERM "$SRV_PID"
wait "$SRV_PID" || { echo "FAIL: server exited non-zero"; cat "$WORK/run.log"; exit 1; }
SRV_PID=""

echo "observability smoke: OK"
