#!/usr/bin/env bash
# Checkpoint -> restart -> warm-pool smoke test against cmd/reprod.
#
# Boots a durable server, commits an INSERT over /exec, warms the pool
# with repeated queries, drains it with SIGTERM (which demotes the pool
# to the disk tier and takes a final checkpoint), restarts it from the
# same -data-dir, and asserts that:
#   1. the committed INSERT survived the restart, '' escape included,
#   2. the pool was pre-warmed from the spill tier,
#   3. the first post-restart query is served with pool hits,
#   4. /stats exposes the spill counters.
set -euo pipefail

PORT="${PORT:-18123}"
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

query() {
  curl -sf -X POST "$BASE/query" -d "{\"sql\": \"$1\"}"
}

echo "== first life: bootstrap, commit, warm =="
"$WORK/reprod" -db sky -objects 5000 -http "127.0.0.1:${PORT}" -data-dir "$WORK/data" >"$WORK/run1.log" 2>&1 &
SRV_PID=$!
wait_healthy

# The description carries an SQL-escaped quote ('' in the literal).
INSERT_SQL="INSERT INTO sky.dbobjects (name, type, description) VALUES ('smoke', 'T', 'O''Brien survived the restart')"
curl -sf -X POST "$BASE/exec" -d "{\"sql\": \"$INSERT_SQL\"}" \
  | jq -e '.rows_affected == 1' >/dev/null

query "$BOX_QUERY" >/dev/null
query "$BOX_QUERY" | jq -e '.stats.hits > 0' >/dev/null  # warm in life 1

kill -TERM "$SRV_PID"
wait "$SRV_PID" || { echo "FAIL: first life exited non-zero"; cat "$WORK/run1.log"; exit 1; }
grep -q "drained 0 in-flight statements" "$WORK/run1.log"
grep -q "demoted" "$WORK/run1.log"
test -f "$WORK/data/snapshot.dat"

echo "== second life: recover, prewarm, warm first query =="
"$WORK/reprod" -db sky -objects 5000 -http "127.0.0.1:${PORT}" -data-dir "$WORK/data" >"$WORK/run2.log" 2>&1 &
SRV_PID=$!
wait_healthy
grep -q "store: recovered" "$WORK/run2.log"
grep -q "store: pre-warmed" "$WORK/run2.log"

# The committed row survived, its escaped quote intact.
query "SELECT description FROM sky.dbobjects WHERE name = 'smoke'" \
  | jq -e --arg want "O'Brien survived the restart" '.results[0].values[0] == $want' >/dev/null

# The very first repeated-template query hits the pre-warmed pool.
query "$BOX_QUERY" | jq -e '.stats.hits > 0' >/dev/null

# /stats exposes the spill counters, and prewarm actually happened.
curl -sf "$BASE/stats" | jq -e '.engine.Recycler.Prewarmed > 0 and .engine.Recycler.Reuses > 0' >/dev/null

kill -TERM "$SRV_PID"
wait "$SRV_PID" || { echo "FAIL: second life exited non-zero"; cat "$WORK/run2.log"; exit 1; }
SRV_PID=""

echo "persistence smoke: OK"
