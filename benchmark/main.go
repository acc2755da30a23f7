// Command benchmark is the repository's benchmark harness. One
// invocation runs one workload once:
//
//	bash benchmark/run.sh --workload sky-hot --seed 42 --seconds 10 --trace 0
//
// With --trace 0 it boots the real cmd/reprod binary (tpch-mix: the
// library API), drives it closed-loop, checks the answers against a
// no-recycler oracle and reports the end-to-end metrics. With --trace 1
// it reports the per-layer metrics instead: a shorter untraced window
// for everything read from the wire, /stats, /metrics and /proc, a
// -norecycle arm, and an in-process traced pass with harness-side
// spans around every layer. BENCHMARK.json names the workloads and
// metrics; README.md explains them.
//
//	benchmark -check A.jsonl [B.jsonl]
//
// compares result files against the bounds in BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/sky"
	"repro/internal/tpch"
)

// metric is one reported number. The final stdout line carries value
// and unit only; result files add the sample count behind the value.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

type metricSet map[string]metric

type sliceRow struct {
	HostSpeed float64 `json:"host_speed"`
	RawRate   float64 `json:"raw_ops_per_s"`
}

func (m metricSet) set(name string, v float64, unit string, samples int) {
	m[name] = metric{Value: v, Unit: unit, Samples: samples}
}

// result is one row of a result file.
type result struct {
	Workload  string    `json:"workload"`
	Seed      int64     `json:"seed"`
	Trace     int       `json:"trace"`
	Seconds   float64   `json:"window_s"`
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Checked   int       `json:"oracle_checked"`
	Metrics   metricSet `json:"metrics"`
	Errors    []string  `json:"errors,omitempty"`
	// Slices holds, per one-second slice of the untraced window, the
	// host speed factor and the raw (unnormalised) completion rate.
	Slices []sliceRow `json:"slices"`

	Host struct {
		NumCPU     int    `json:"nproc"`
		Kernel     string `json:"kernel"`
		GoVersion  string `json:"go"`
		GOMAXPROCS int    `json:"gomaxprocs"`
	} `json:"host"`
	Commit      string   `json:"commit"`
	Clients     int      `json:"clients"`
	ReprodFlags []string `json:"reprod_flags,omitempty"`
	Smoke       bool     `json:"smoke,omitempty"`
	Time        string   `json:"time"`
}

var workloads = []string{"sky-hot", "sky-explore", "sky-rw", "tpch-mix"}

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloads, ", "))
	seed := flag.Int64("seed", 42, "workload seed")
	seconds := flag.Float64("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, 1: per-layer metrics")
	smoke := flag.Bool("smoke", false, "tiny sizes (5k objects, SF 0.005) for the harness's own test")
	out := flag.String("out", "", "result file to append to (default benchmark/out/results.jsonl)")
	check := flag.Bool("check", false, "compare result files given as arguments against BENCHMARK.json")
	flag.Parse()

	if *check {
		os.Exit(runCheck(flag.Args()))
	}
	code := 1
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(os.Stderr, "benchmark: panic: %v\n%s", r, debug.Stack())
		}
		killAll()
		os.Exit(code)
	}()
	res, err := run(*workload, *seed, *seconds, *trace == 1, *smoke)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return
	}
	if err := emit(res, *out); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return
	}
	code = 0
}

// run executes one workload and returns its result row.
func run(workload string, seed int64, seconds float64, trace, smoke bool) (*result, error) {
	if !slices.Contains(workloads, workload) {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(workloads, ", "))
	}
	if seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	cfg := newConfig(workload, seed, seconds, smoke)
	var err error
	if cfg.root, err = os.Getwd(); err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(cfg.root, "cmd", "reprod", "main.go")); err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	build := filepath.Join(cfg.root, ".bench_build")
	cfg.runDir = filepath.Join(build, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(cfg.runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.runDir)
	if workload != "tpch-mix" {
		// Build the real server. The time is reported as
		// harness.build_s and is not part of setup_s.
		cfg.reprodBin = filepath.Join(build, "bin", "reprod")
		t0 := time.Now()
		cmd := exec.Command("go", "build", "-o", cfg.reprodBin, "./cmd/reprod")
		cmd.Dir = cfg.root
		if outp, err := cmd.CombinedOutput(); err != nil {
			return nil, fmt.Errorf("go build ./cmd/reprod: %w\n%s", err, outp)
		}
		cfg.buildS = time.Since(t0).Seconds()
	}

	res := &result{Workload: workload, Seed: seed, Seconds: seconds, Metrics: metricSet{}, Clients: cfg.clients, Smoke: smoke}
	if trace {
		res.Trace = 1
	}
	res.Host.NumCPU = runtime.NumCPU()
	res.Host.GoVersion = runtime.Version()
	res.Host.GOMAXPROCS = runtime.GOMAXPROCS(0)
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		res.Host.Kernel = strings.TrimSpace(string(b))
	}
	res.Commit = "unknown" // the driver's checkout is not a git repository
	if b, err := exec.Command("git", "-C", cfg.root, "rev-parse", "HEAD").Output(); err == nil {
		res.Commit = strings.TrimSpace(string(b))
	}
	res.Time = time.Now().UTC().Format(time.RFC3339)

	if trace {
		err = runLayers(cfg, res)
	} else {
		err = runEndToEnd(cfg, res)
	}
	if err != nil {
		return nil, err
	}
	res.Correct = len(res.Errors) == 0
	if len(res.Errors) > 20 {
		res.Errors = append(res.Errors[:20], fmt.Sprintf("... and %d more", len(res.Errors)-20))
	}
	return res, nil
}

// runEndToEnd is the --trace 0 run: repeated set-up, one untraced
// window, the oracle.
func runEndToEnd(cfg config, res *result) error {
	var w *window
	var err error
	if cfg.workload == "tpch-mix" {
		w, _, err = tpchWindow(cfg, cfg.seconds, cfg.setups)
	} else {
		// Generated before any server runs, so the oracle's set-up
		// does not compete with the measured one.
		oracleCat := sky.Generate(cfg.objects, skyDBSeed).Cat
		w, err = skyWindow(cfg, oracleCat, cfg.seconds, cfg.setups, false)
	}
	if err != nil {
		return err
	}
	tally(res, w)
	endToEndMetrics(res.Metrics, w)
	return nil
}

// runLayers is the --trace 1 run: half the window untraced for the
// wire-, /stats-, /metrics- and /proc-sourced numbers, a quarter on a
// -norecycle server, then the traced in-process passes.
func runLayers(cfg config, res *result) error {
	m := res.Metrics
	var w *window
	var naive *window
	var err error
	var newCat func() *catalog.Catalog
	if cfg.workload == "tpch-mix" {
		var db *tpch.DB
		if w, db, err = tpchWindow(cfg, cfg.seconds/2, 1); err != nil {
			return err
		}
		newCat = func() *catalog.Catalog { return db.Cat }
	} else {
		shared := sky.Generate(cfg.objects, skyDBSeed).Cat
		if w, err = skyWindow(cfg, shared, cfg.seconds/2, 1, false); err != nil {
			return err
		}
		newCat = func() *catalog.Catalog { return shared }
		if cfg.workload == "sky-rw" {
			// Writes mutate the catalog: the shadow is spent and
			// every pass needs its own.
			shared = nil
			newCat = func() *catalog.Catalog { return sky.Generate(cfg.objects, skyDBSeed).Cat }
		} else {
			// The paper's headline ratio: the same op list on a fresh
			// server with the recycler off, never sharing a process
			// with the measured numbers.
			if naive, err = skyWindow(cfg, shared, max(cfg.seconds/4, 1), 1, true); err != nil {
				return err
			}
		}
	}
	tally(res, w)
	if naive != nil {
		tally(res, naive)
	}
	wireMetrics(m, cfg, w, naive)
	failed, mismatches, err := tracedRun(cfg, m, newCat)
	if err != nil {
		return err
	}
	res.Failed += failed
	res.Attempted += cfg.tracedOps[cfg.workload] * 2
	res.Errors = append(res.Errors, mismatches...)
	return nil
}

// tally folds a window's op and oracle outcomes into the result row.
func tally(res *result, w *window) {
	for _, client := range w.recs {
		for _, r := range client {
			res.Attempted++
			if r.err != nil {
				res.Failed++
				res.Errors = append(res.Errors, fmt.Sprintf("%q: %v", r.op.sql, r.err))
			}
		}
	}
	res.Failed += len(w.mismatches)
	res.Errors = append(res.Errors, w.mismatches...)
	if w.lost != 0 {
		res.Errors = append(res.Errors, fmt.Sprintf("%d acknowledged rows lost or resurrected by crash recovery", w.lost))
	}
	res.Checked += w.checked
	if res.Slices == nil {
		rate, _, _, _ := sliceStats(w)
		for i, sl := range w.slices {
			res.Slices = append(res.Slices, sliceRow{sl.speed, rate[i] / sl.speed})
		}
	}
	if len(w.flags) > 0 && res.ReprodFlags == nil {
		res.ReprodFlags = w.flags
	}
}

// latencies splits a window's completed ops into read and write
// latencies (µs) and engine-side read times.
func latencies(w *window) (reads, writes, engine, overhead []float64, failed int) {
	for _, client := range w.recs {
		for _, r := range client {
			switch {
			case r.err != nil:
				failed++
			case r.op.write:
				writes = append(writes, us(r.lat))
			default:
				reads = append(reads, us(r.lat))
				engine = append(engine, float64(r.rep.elapsedUS))
				overhead = append(overhead, us(r.lat)-float64(r.rep.elapsedUS))
			}
		}
	}
	return
}

// sliceStats returns, per one-second slice of the window and at
// reference host speed: ops completed per second, read p50 and p99
// (µs), and CPU per op (µs) of the process hosting the engine.
// Reporting the median slice keeps a burst the probe straddled from
// deciding a run.
func sliceStats(w *window) (rate, p50, p99, cpuPerOp []float64) {
	n := len(w.slices)
	counts := make([]int, n)
	lats := make([][]float64, n)
	for _, client := range w.recs {
		for _, r := range client {
			if r.err != nil {
				continue
			}
			counts[r.slice]++
			if !r.op.write {
				lats[r.slice] = append(lats[r.slice], us(r.lat))
			}
		}
	}
	for i, sl := range w.slices {
		rate = append(rate, ratio(float64(counts[i]), sl.wall.Seconds())*sl.speed)
		p50 = append(p50, percentile(lats[i], 0.50))
		p99 = append(p99, percentile(lats[i], 0.99))
		cpuPerOp = append(cpuPerOp, ratio(us(sl.cpu)/sl.speed, float64(counts[i])))
	}
	return rate, p50, p99, cpuPerOp
}

func endToEndMetrics(m metricSet, w *window) {
	reads, writes, _, _, _ := latencies(w)
	ok := len(reads) + len(writes)
	rate, p50, p99, cpuPerOp := sliceStats(w)
	m.set("setup_s", median(w.setups), "s", len(w.setups))
	m.set("qps", median(rate), "1/s", ok)
	m.set("read_p50_us", median(p50), "us", len(reads))
	m.set("read_p99_us", median(p99), "us", len(reads))
	m.set("heap_live_mb", w.heapMB, "MB", 1)
	m.set("cpu_us_per_op", median(cpuPerOp), "us", ok)
}

// wireMetrics derives the U-sourced per-layer metrics: everything the
// harness can read from outside the program.
func wireMetrics(m metricSet, cfg config, w, naive *window) {
	reads, writes, engine, overhead, failed := latencies(w)
	q := float64(len(reads))
	ok := len(reads) + len(writes)
	var hits, marked, subsumed int
	var saved int64
	for _, client := range w.recs {
		for _, r := range client {
			hits += r.rep.hits
			marked += r.rep.marked
			subsumed += r.rep.subsumed
			saved += r.rep.savedUS
		}
	}
	sb, sa := w.before.Server, w.after.Server
	eb, ea := w.before.Engine, w.after.Engine
	rb, ra := eb.Recycler, ea.Recycler

	m.set("client.write_p50_us", percentile(writes, 0.50), "us", len(writes))
	m.set("client.write_p99_us", percentile(writes, 0.99), "us", len(writes))
	m.set("client.rss_peak_mb", w.hwmMB, "MB", 1)
	m.set("client.error_rate", ratio(float64(failed+len(w.mismatches)), float64(ok+failed)), "ratio", ok+failed)

	m.set("server.overhead_us_p50", percentile(overhead, 0.50), "us", len(overhead))
	ph, pm := float64(sa.PreparedHits-sb.PreparedHits), float64(sa.PreparedMisses-sb.PreparedMisses)
	m.set("server.prepared_hit_ratio", ratio(ph, ph+pm), "ratio", int(ph+pm))
	m.set("server.rejected", float64(sa.Rejected-sb.Rejected), "count", ok+failed)
	th, tm := float64(ea.TemplateCache.Hits-eb.TemplateCache.Hits), float64(ea.TemplateCache.Misses-eb.TemplateCache.Misses)
	m.set("sqlfe.template_cache_hit_ratio", ratio(th, th+tm), "ratio", int(th+tm))
	m.set("sqlfe.template_cache_size", float64(ea.TemplateCache.Size), "count", 1)
	m.set("mal.engine_us_p50", percentile(engine, 0.50), "us", len(engine))

	m.set("recycler.hit_ratio", ratio(float64(hits), float64(marked)), "ratio", marked)
	m.set("recycler.subsumed_per_kq", ratio(1000*float64(subsumed), q), "count", len(reads))
	m.set("recycler.saved_us_per_q", ratio(float64(saved), q), "us", len(reads))
	m.set("recycler.admitted_per_kq", ratio(1000*float64(ra.Admitted-rb.Admitted), q), "count", len(reads))
	m.set("recycler.evicted_per_kq", ratio(1000*float64(ra.Evicted-rb.Evicted), q), "count", len(reads))
	m.set("recycler.pool_entries", float64(ra.Entries), "count", 1)
	m.set("recycler.pool_bytes", float64(ra.Bytes), "bytes", 1)
	lockWait := (ra.WriterLockWait + ra.ShardLockWait) - (rb.WriterLockWait + rb.ShardLockWait)
	m.set("recycler.lock_wait_us_per_kq", ratio(1000*us(lockWait), q), "us", len(reads))

	fsync := parsePromHistogram(w.promPost, "repro_wal_fsync_seconds").sub(parsePromHistogram(w.promPre, "repro_wal_fsync_seconds"))
	m.set("store.fsync_us_p50", fsync.quantile(0.5)*1e6, "us", int(fsync.count))
	m.set("store.snapshot_bytes", float64(w.snapshotB), "bytes", 1)
	m.set("store.checkpoints_in_window", float64(w.checkpoints), "count", 1)
	m.set("store.recover_s", w.recoverS, "s", 1)
	m.set("store.acked_writes_lost", float64(w.lost), "count", len(writes))

	speedup := 0.0
	if naive != nil {
		rate, _, _, _ := sliceStats(w)
		nrate, _, _, _ := sliceStats(naive)
		speedup = ratio(median(rate), median(nrate))
	}
	m.set("recycler.speedup_vs_naive", speedup, "ratio", ok)
	m.set("harness.build_s", cfg.buildS, "s", 1)
	m.set("harness.clients", float64(cfg.clients), "count", 1)
	var speeds []float64
	var wall time.Duration
	for _, sl := range w.slices {
		speeds = append(speeds, sl.speed)
		wall += sl.wall
	}
	m.set("harness.host_speed", median(speeds), "ratio", len(speeds))
	m.set("client.qps_raw", ratio(float64(ok), wall.Seconds()), "1/s", ok)
}

// emit prints every metric as "workload metric value unit", appends
// the full row to the result file and ends with the one-line JSON
// object the driver reads.
func emit(res *result, out string) error {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%s %s %v %s\n", res.Workload, n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for _, e := range res.Errors {
		fmt.Fprintln(os.Stderr, "benchmark: incorrect:", e)
	}
	if out == "" {
		out = filepath.Join("benchmark", "out", "results.jsonl")
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	row, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(out, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(row, '\n')); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	type wireMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]wireMetric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]wireMetric{}}
	for n, v := range res.Metrics {
		last.Metrics[n] = wireMetric{v.Value, v.Unit}
	}
	line, err := json.Marshal(last)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
