#!/usr/bin/env bash
# Capture a CPU profile of the SkyServer workload mix plus the kernel
# microbenchmarks, so kernel work is guided by measurement rather than
# guesswork (docs/ARCHITECTURE.md "Kernel layer"). Artifacts land in
# profiles/:
#   profiles/sky.pprof        the Fig. 14 batch (BenchmarkFig14): the
#                             SkyServer mix over 20k objects run naive,
#                             keepall and CRD/LRU
#   profiles/tpch.pprof       the served tpch-mix shape in process
#                             (BenchmarkTPCHMix): ten query types at SF
#                             0.05 over a capped KeepAll/LRU pool, two
#                             Sessions, one pprof label per query;
#                             profiles/tpch.tags.txt is its per-query
#                             split (go tool pprof -tags)
#   profiles/miss.pprof       the recycled miss path: nested boxes
#                             subsumed onto a pooled superset over 200k
#                             sky objects (BenchmarkEngineMiss)
#   profiles/kernels.pprof    internal/algebra Kernel* benchmarks (range,
#                             float, narrow float, SelectPaths: uselect /
#                             not-nil / sorted view, all-hit and
#                             foreign-key join, anti-semijoin, group) and
#                             the sorted semijoin
#   profiles/misspath.pprof   recycler miss path (admit at the cap,
#                             missed select) at 1e2..1e4 pool entries
#   profiles/commit.pprof     single-row INSERT / DELETE commits against a
#                             warm maintained pool at 20k and 200k rows
#   profiles/hit.pprof        a whole-query exact hit through Engine.Exec
#                             (tracer on); hit-server.pprof the same
#                             statement as a POST /query round trip
#   profiles/exec-server.pprof  a 23-column sky.photoobj INSERT as a
#                             POST /exec round trip
#   profiles/*.top.txt        `go tool pprof -top` summaries
# Usage: scripts/profile.sh
set -euo pipefail
cd "$(dirname "$0")/.." || exit 1

mkdir -p profiles

echo "== SkyServer batch, naive / keepall / CRD-LRU (Fig. 14) =="
go test . -run '^$' -bench 'BenchmarkFig14' \
  -benchtime 50x -cpuprofile profiles/sky.pprof \
  -o profiles/repro.test | tee profiles/sky.bench.txt

echo "== tpch-mix in process (SF 0.05, two Sessions, labelled per query) =="
go test . -run '^$' -bench 'BenchmarkTPCHMix' \
  -benchtime 15000x -cpuprofile profiles/tpch.pprof \
  -o profiles/repro.test | tee profiles/tpch.bench.txt

echo "== recycled miss path (nested boxes subsumed onto the pool) =="
go test . -run '^$' -bench 'BenchmarkEngineMiss' \
  -benchtime 2000x -benchmem -cpuprofile profiles/miss.pprof \
  -o profiles/repro.test | tee profiles/miss.bench.txt

echo "== kernel microbenchmarks =="
go test ./internal/algebra/ -run '^$' -bench 'BenchmarkKernel|BenchmarkSemijoinSorted' \
  -benchtime 100x -cpuprofile profiles/kernels.pprof \
  -o profiles/algebra.test >/dev/null

echo "== recycler miss path (ns/op must not scale with pool size) =="
go test ./internal/recycler/ -run '^$' \
  -bench 'BenchmarkExitAtCap|BenchmarkSubsumeSelectMiss' \
  -benchtime 20000x -benchmem -cpuprofile profiles/misspath.pprof \
  -o profiles/recycler.test | tee profiles/misspath.bench.txt

echo "== commit path (an insert must not scale with the table) =="
go test ./internal/recycler/ -run '^$' \
  -bench 'BenchmarkCommitInsert|BenchmarkCommitDelete' \
  -benchtime 300x -benchmem -cpuprofile profiles/commit.pprof \
  -o profiles/recycler.test | tee profiles/commit.bench.txt

echo "== hit path (a full hit should cost what the pool probes cost) =="
go test . -run '^$' -bench 'BenchmarkEngineHit' \
  -benchtime 20000x -benchmem -cpuprofile profiles/hit.pprof \
  -o profiles/repro.test | tee profiles/hit.bench.txt
go test ./internal/server/ -run '^$' -bench 'BenchmarkServerQueryHit' \
  -benchtime 5000x -benchmem -cpuprofile profiles/hit-server.pprof \
  -o profiles/server.test | tee -a profiles/hit.bench.txt

echo "== write path over the wire (one INSERT: parse, typing, commit) =="
go test ./internal/server/ -run '^$' -bench 'BenchmarkServerExecInsert' \
  -benchtime 5000x -benchmem -cpuprofile profiles/exec-server.pprof \
  -o profiles/server.test | tee profiles/exec.bench.txt

echo "== top functions =="
go tool pprof -top -nodecount 25 profiles/repro.test profiles/sky.pprof \
  | tee profiles/sky.top.txt
go tool pprof -top -nodecount 25 profiles/repro.test profiles/tpch.pprof \
  | tee profiles/tpch.top.txt
go tool pprof -tags profiles/repro.test profiles/tpch.pprof \
  | tee profiles/tpch.tags.txt
go tool pprof -top -nodecount 25 profiles/repro.test profiles/miss.pprof \
  | tee profiles/miss.top.txt
go tool pprof -top -nodecount 25 profiles/algebra.test profiles/kernels.pprof \
  | tee profiles/kernels.top.txt
go tool pprof -top -nodecount 25 profiles/recycler.test profiles/misspath.pprof \
  | tee profiles/misspath.top.txt
go tool pprof -top -nodecount 25 profiles/recycler.test profiles/commit.pprof \
  | tee profiles/commit.top.txt
go tool pprof -top -nodecount 25 profiles/repro.test profiles/hit.pprof \
  | tee profiles/hit.top.txt
go tool pprof -top -nodecount 25 profiles/server.test profiles/hit-server.pprof \
  | tee profiles/hit-server.top.txt
go tool pprof -top -nodecount 25 profiles/server.test profiles/exec-server.pprof \
  | tee profiles/exec-server.top.txt

echo "profiles written to profiles/ (open with: go tool pprof -http :8080 <file>)"
