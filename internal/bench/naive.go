package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/sky"
	"repro/internal/trace"
)

// This file implements the naive single-stream baseline: the SkyServer
// workload mix driven by ONE client with no recycler, no measurement
// hooks and the sequential interpreter. It is the denominator of every
// recycled-vs-naive ratio the other experiments report, and CI gates
// kernel regressions on its QPS against a recorded seed value.

// NaiveResult is one naive single-stream run.
type NaiveResult struct {
	Queries       int
	Wall          time.Duration
	QPS           float64
	P50, P95, P99 time.Duration
}

// RunNaiveStream executes the sampled workload once, single-stream,
// against a naive sequential runner, and returns the throughput.
func RunNaiveStream(db *sky.DB, n int, seed int64) NaiveResult {
	w := sky.SampleWorkload(db, n, seed)
	r := NewNaive(db.Cat, false)
	// The baseline measures the full naive kernel stack — typed scans,
	// arena joins AND fused select chains — unlike the ratio
	// experiments, which hold fusion off on both arms.
	r.NoFusion = false
	r.Warmup(skyWarmup(w))
	var lat trace.Histogram
	start := time.Now()
	for _, q := range w.Batch {
		q0 := time.Now()
		r.MustRun(w.Template(q.Kind), q.Params...)
		lat.Observe(time.Since(q0))
	}
	wall := time.Since(start)
	res := NaiveResult{Queries: len(w.Batch), Wall: wall}
	if wall > 0 {
		res.QPS = float64(res.Queries) / wall.Seconds()
	}
	res.P50, res.P95, res.P99 = lat.Quantile(0.50), lat.Quantile(0.95), lat.Quantile(0.99)
	return res
}

// PrintNaive renders the baseline row and, when a seed value is known,
// the speedup against it.
func PrintNaive(w io.Writer, res NaiveResult, seedQPS float64) {
	fmt.Fprintf(w, "queries %d  wall %v  QPS %.1f  p50 %v  p95 %v  p99 %v\n",
		res.Queries, res.Wall.Round(time.Millisecond), res.QPS,
		res.P50.Round(time.Microsecond), res.P95.Round(time.Microsecond), res.P99.Round(time.Microsecond))
	if seedQPS > 0 {
		fmt.Fprintf(w, "seed-kernel baseline %.1f QPS -> speedup %.2fx\n", seedQPS, res.QPS/seedQPS)
	}
}
