#!/usr/bin/env bash
# Checkpoint -> restart -> warm-pool smoke test against cmd/reprod.
#
# Runs a durable server through three lives over one -data-dir. Life 1
# bootstraps, commits an INSERT over /exec and warms the pool with
# query A; each SIGTERM drain writes the pool image and takes a final
# checkpoint. Life 2 recovers, pre-warms, and warms query B; life 3
# recovers and pre-warms again. It asserts that:
#   1. the committed INSERT survived the restart, '' escape included,
#   2. the pool was pre-warmed from the pool image,
#   3. pre-warmed entries are full entries: life 2's first query, a box
#      inside query A's, is subsumed by the pre-warmed select,
#   4. the first post-restart repeat of a query is served with pool hits,
#   5. /stats exposes the pool image counters,
#   6. each drain leaves exactly one image in the data dir,
#   7. life 3 pre-warms no more entries than life 2's drain wrote.
# For every life it prints boot-to-healthy seconds, the first query's
# pool hits, and the size of the pool image its drain wrote.
set -euo pipefail

PORT="${PORT:-18123}"
BASE="http://127.0.0.1:${PORT}"
WORK="$(mktemp -d)"
trap 'if [ -n "${SRV_PID:-}" ]; then kill "$SRV_PID" 2>/dev/null || true; wait "$SRV_PID" 2>/dev/null || true; fi; rm -rf "$WORK" 2>/dev/null || true' EXIT

QUERY_A='SELECT COUNT(*) FROM sky.photoobj WHERE ra BETWEEN 195.0 AND 197.5 AND dec BETWEEN 2.0 AND 3.0 AND mode = 1'
QUERY_NARROW='SELECT COUNT(*) FROM sky.photoobj WHERE ra BETWEEN 195.5 AND 197.0 AND dec BETWEEN 2.0 AND 3.0 AND mode = 1'
QUERY_B='SELECT COUNT(*) FROM sky.photoobj WHERE ra BETWEEN 120.0 AND 140.0 AND dec BETWEEN -5.0 AND 5.0 AND mode = 1'

go build -o "$WORK/reprod" ./cmd/reprod

query() {
  curl -sf -X POST "$BASE/query" -d "{\"sql\": \"$1\"}"
}

# boot starts life $1 and waits until /healthz answers; BOOT_S is the
# launch-to-healthy time in seconds.
boot() {
  local t0
  t0=$(date +%s.%N)
  "$WORK/reprod" -db sky -objects 5000 -http "127.0.0.1:${PORT}" -data-dir "$WORK/data" >"$WORK/run$1.log" 2>&1 &
  SRV_PID=$!
  for _ in $(seq 1 500); do
    if curl -sf "$BASE/healthz" >/dev/null 2>&1; then
      BOOT_S=$(awk -v a="$t0" -v b="$(date +%s.%N)" 'BEGIN { printf "%.2f", b - a }')
      return 0
    fi
    sleep 0.02
  done
  echo "FAIL: life $1 did not become healthy"; cat "$WORK/run$1.log"; exit 1
}

# drain stops life $1 with SIGTERM and checks what it left behind.
drain() {
  kill -TERM "$SRV_PID"
  wait "$SRV_PID" || { echo "FAIL: life $1 exited non-zero"; cat "$WORK/run$1.log"; exit 1; }
  SRV_PID=""
  grep -q "drained 0 in-flight statements" "$WORK/run$1.log"
  grep -q "demoted" "$WORK/run$1.log"
  test -f "$WORK/data/snapshot.dat"
  local images
  images=$(find "$WORK/data" -maxdepth 1 \( -name '*.img' -o -name 'pool-*.tmp' \) | wc -l)
  if [ "$images" -ne 1 ]; then
    echo "FAIL: life $1 left $images pool image files"; ls -la "$WORK/data"; exit 1
  fi
  echo "life $1: boot-to-healthy ${BOOT_S}s, drain wrote pool.img of $(wc -c <"$WORK/data/pool.img") bytes"
}

# count prints the number in the "store: $2 N pool entries" line of
# life $1's log (0 when the line is absent).
count() {
  sed -n "s/^store: $2 \([0-9]*\) pool entries.*/\1/p" "$WORK/run$1.log" | tail -n 1 | grep . || echo 0
}

# report prints life $1's boot time and the pool hits of its first
# query $2, which answered with $3 hits.
report() {
  echo "life $1: boot-to-healthy ${BOOT_S}s, first query $2 hits $3"
}

echo "== life 1: bootstrap, commit, warm A =="
boot 1

# The description carries an SQL-escaped quote ('' in the literal).
INSERT_SQL="INSERT INTO sky.dbobjects (name, type, description) VALUES ('smoke', 'T', 'O''Brien survived the restart')"
curl -sf -X POST "$BASE/exec" -d "{\"sql\": \"$INSERT_SQL\"}" \
  | jq -e '.rows_affected == 1' >/dev/null

HITS=$(query "$QUERY_A" | jq '.stats.hits')
report 1 A "$HITS"
query "$QUERY_A" | jq -e '.stats.hits > 0' >/dev/null  # warm in life 1
drain 1

echo "== life 2: recover, prewarm, warm first query, warm B =="
boot 2
grep -q "store: recovered" "$WORK/run2.log"
grep -q "store: pre-warmed" "$WORK/run2.log"

# Before any other query: a box inside query A's is rewritten onto the
# pre-warmed select, which carries its subsumption metadata.
query "$QUERY_NARROW" | jq -e '.stats.subsumed > 0' >/dev/null \
  || { echo "FAIL: a box inside a pre-warmed one was not subsumed"; exit 1; }

# The committed row survived, its escaped quote intact.
query "SELECT description FROM sky.dbobjects WHERE name = 'smoke'" \
  | jq -e --arg want "O'Brien survived the restart" '.results[0].values[0] == $want' >/dev/null

# The very first repeated-template query hits the pre-warmed pool.
HITS=$(query "$QUERY_A" | jq '.stats.hits')
report 2 A "$HITS"
[ "$HITS" -gt 0 ] || { echo "FAIL: first query of life 2 missed the pre-warmed pool"; exit 1; }

# /stats exposes the pool image counters, and prewarm actually happened.
curl -sf "$BASE/stats" | jq -e '.engine.Recycler.Prewarmed > 0 and .engine.Recycler.Reuses > 0' >/dev/null

query "$QUERY_B" >/dev/null
drain 2
DEMOTED2=$(count 2 demoted)

echo "== life 3: recover, prewarm from life 2's image =="
boot 3
grep -q "store: pre-warmed" "$WORK/run3.log"
PREWARMED3=$(count 3 pre-warmed)
if [ "$PREWARMED3" -gt "$DEMOTED2" ]; then
  echo "FAIL: life 3 pre-warmed $PREWARMED3 entries, life 2 wrote $DEMOTED2"; exit 1
fi
HITS=$(query "$QUERY_B" | jq '.stats.hits')
report 3 B "$HITS"
[ "$HITS" -gt 0 ] || { echo "FAIL: first query of life 3 missed the pre-warmed pool"; exit 1; }
echo "life 2 wrote $DEMOTED2 image records, life 3 pre-warmed $PREWARMED3"
drain 3

echo "persistence smoke: OK"
