// Command skybench regenerates the SkyServer experiments of the paper
// (Fig. 14, Table III and Fig. 15) and runs the count gates CI holds
// the engine to. Throughput, latency, multi-client and restart numbers
// are not measured here: they are taken on the served path by the
// benchmark/ harness (sky-hot, sky-explore, sky-rw, tpch-mix) and
// scripts/persistence_smoke.sh.
//
// Usage:
//
//	skybench [flags] <experiment> [<experiment> ...]
//
// Experiments:
//
//	batch    batch splits 4x25 / 2x50 / 1x100 (+ -n scaling) (Fig. 14)
//	table3   recycle pool breakdown after the batch (Table III)
//	subsume  B2/B4 combined-subsumption micro-benchmarks (Fig. 15)
//	naive    naive single-stream QPS of the full kernel stack; exits
//	         non-zero if it is below -min-naive-speedup times
//	         -seed-naive-qps (the CI kernel gate)
//	equiv    equivalent-query workload: semantically equal SQL spelled
//	         differently (shuffled conjuncts, literal variants, BETWEEN
//	         splits), exact-hit rate with the normalization pipeline
//	         off vs on; exits non-zero if the normalized rate is below
//	         -min-hit-rate (the CI gate)
//	rw       mixed read/write workload at -write-frac DML, run under
//	         invalidate vs propagate vs maintain, each on a freshly
//	         generated catalog; exits non-zero if maintain's exact-hit
//	         rate is below -min-maintain-ratio times invalidate's (the
//	         CI gate)
//	all      everything above
//
// Several experiments may be named in one invocation; all but rw share
// one generated catalog, and the exit code aggregates every gate that
// ran. All workload generators take -seed (and the catalog generator
// -dbseed), so runs are reproducible across hosts.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"

	"repro/internal/bench"
	"repro/internal/sky"
)

func main() {
	objects := flag.Int("objects", 200000, "number of synthetic sky objects")
	n := flag.Int("n", 100, "workload batch size")
	seeds := flag.Int("seeds", 12, "seed queries per micro-benchmark")
	sel := flag.Float64("s", 0.02, "seed query selectivity (micro-benchmarks)")
	seed := flag.Int64("seed", 42, "workload random seed (reproducible runs across hosts)")
	dbseed := flag.Int64("dbseed", 17, "catalog generator random seed")
	variants := flag.Int("variants", 3, "equivalent spellings per query (equiv experiment)")
	minHitRate := flag.Float64("min-hit-rate", 0.95, "fail the equiv experiment when the normalized exact-hit rate is below this")
	writeFrac := flag.Float64("write-frac", 0.10, "fraction of DML operations in the rw experiment")
	minMaintainRatio := flag.Float64("min-maintain-ratio", 2.0, "fail the rw experiment when maintain's exact-hit rate is below this multiple of invalidate's")
	seedNaiveQPS := flag.Float64("seed-naive-qps", 0, "frozen pre-kernel-pass naive single-stream QPS (naive experiment gate reference; 0 = no gate)")
	minNaiveSpeedup := flag.Float64("min-naive-speedup", 2.0, "fail the naive experiment when its QPS is below this multiple of -seed-naive-qps")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the whole run to FILE (scripts/profile.sh)")
	flag.Parse()

	// os.Exit skips defers, so the profile is stopped explicitly on the
	// normal path (failed gates still flush it before exiting non-zero).
	stopProfile := func() {}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		stopProfile = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}

	exps := flag.Args()
	if len(exps) == 0 {
		exps = []string{"all"}
	}
	fmt.Printf("# SkyServer experiments, %d objects\n\n", *objects)
	gen := func() *sky.DB { return sky.Generate(*objects, *dbseed) }
	// The read-only experiments of one invocation share one catalog; rw
	// writes, so it generates a fresh catalog per sync preset.
	var db *sky.DB
	getDB := func() *sky.DB {
		if db == nil {
			db = gen()
		}
		return db
	}

	// Gated experiments keep running after a failure so one invocation
	// reports every gate; the exit code aggregates them.
	ok := true
	for _, exp := range exps {
		switch exp {
		case "batch":
			runBatch(getDB(), *n, *seed)
		case "table3":
			runTable3(getDB(), *n, *seed)
		case "subsume":
			runSubsume(getDB(), *seeds, *sel, *seed)
		case "equiv":
			ok = runEquiv(getDB(), *n, *variants, *seed, *minHitRate) && ok
		case "rw":
			ok = runRW(gen, *n, *writeFrac, *seed, *minMaintainRatio) && ok
		case "naive":
			ok = runNaive(getDB(), *n, *seed, *seedNaiveQPS, *minNaiveSpeedup) && ok
		case "all":
			d := getDB()
			runBatch(d, *n, *seed)
			runTable3(d, *n, *seed)
			runSubsume(d, *seeds, *sel, *seed)
			ok = runNaive(d, *n, *seed, *seedNaiveQPS, *minNaiveSpeedup) && ok
			ok = runEquiv(d, *n, *variants, *seed, *minHitRate) && ok
			ok = runRW(gen, *n, *writeFrac, *seed, *minMaintainRatio) && ok
		default:
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", exp)
			os.Exit(2)
		}
	}
	stopProfile()
	if !ok {
		os.Exit(1)
	}
}

// runNaive measures the naive single-stream SkyServer-mix QPS — the
// baseline every recycled ratio is reported against. When seedQPS > 0
// it also gates: the current kernels must deliver at least minSpeedup
// times the frozen seed-kernel value (the CI regression gate for the
// raw-speed kernel pass).
func runNaive(db *sky.DB, n int, seed int64, seedQPS, minSpeedup float64) bool {
	fmt.Printf("== Naive single-stream baseline: %d queries, sequential interpreter, no recycler ==\n", n)
	res := bench.RunNaiveStream(db, n, seed)
	bench.PrintNaive(os.Stdout, res, seedQPS)
	if seedQPS > 0 && res.QPS < minSpeedup*seedQPS {
		fmt.Fprintf(os.Stderr, "FAIL: naive single-stream QPS %.1f is %.2fx the seed-kernel baseline %.1f (gate %.1fx)\n",
			res.QPS, res.QPS/seedQPS, seedQPS, minSpeedup)
		return false
	}
	fmt.Println()
	return true
}

// runEquiv measures the normalization pipeline's effect on the
// recycler: the same semantically-equal workload with normalization
// off (every spelling its own template — variants miss) and on (one
// template — variants hit exactly). Returns false when the normalized
// exact-hit rate misses the gate.
func runEquiv(db *sky.DB, n, variants int, seed int64, minRate float64) bool {
	fmt.Printf("== Equivalent-query workload: %d queries x %d spellings (shuffled conjuncts, literal variants) ==\n", n, variants)
	queries := bench.EquivWorkload(n, variants, seed)
	rows := []bench.EquivResult{
		bench.RunEquiv(db, queries, false),
		bench.RunEquiv(db, queries, true),
	}
	bench.PrintEquiv(os.Stdout, rows)
	norm := rows[1]
	if rate := norm.ExactHitRate(); rate < minRate {
		fmt.Fprintf(os.Stderr, "FAIL: normalized exact-hit rate %.1f%% below gate %.1f%%\n",
			100*rate, 100*minRate)
		return false
	}
	fmt.Printf("normalized exact-hit rate %.1f%% (gate %.1f%%), baseline %.1f%%\n\n",
		100*norm.ExactHitRate(), 100*minRate, 100*rows[0].ExactHitRate())
	return true
}

// runRW measures update synchronisation under churn: the same mixed
// read/write workload (bounding-box COUNTs over sky.photoobj with DML
// interleaved at writeFrac) run under invalidate, propagate and
// maintain, each on a catalog fresh from gen. With repeating reads,
// what survives each commit is exactly what each mode's rules keep
// alive, so the exact-hit rate separates them. Returns false when
// maintain's rate misses the gate relative to invalidate's.
func runRW(gen func() *sky.DB, n int, writeFrac float64, seed int64, minRatio float64) bool {
	fmt.Printf("== Mixed read/write workload: %d ops, %.0f%% writes, per sync mode ==\n", n, 100*writeFrac)
	rows := bench.RWPresets(gen, n, writeFrac, seed)
	bench.PrintRW(os.Stdout, rows)
	inval, maint := rows[0], rows[2]
	ratio := 0.0
	if inval.ExactHitRate() > 0 {
		ratio = maint.ExactHitRate() / inval.ExactHitRate()
	} else if maint.ExactHitRate() > 0 {
		ratio = minRatio // invalidate kept nothing; any maintained hits clear the gate
	}
	if ratio < minRatio {
		fmt.Fprintf(os.Stderr, "FAIL: maintain exact-hit rate %.1f%% is %.2fx invalidate's %.1f%% (gate %.1fx)\n",
			100*maint.ExactHitRate(), ratio, 100*inval.ExactHitRate(), minRatio)
		return false
	}
	fmt.Printf("maintain exact-hit rate %.1f%% = %.2fx invalidate's %.1f%% (gate %.1fx); %d entries maintained, %d fell back\n\n",
		100*maint.ExactHitRate(), ratio, 100*inval.ExactHitRate(), minRatio, maint.Maintained, maint.Fallback)
	return true
}

func runBatch(db *sky.DB, n int, seed int64) {
	fmt.Printf("== Fig. 14: recycler effect on the %d-query batch ==\n", n)
	w := sky.SampleWorkload(db, n, seed)
	var rows []bench.Fig14Row
	for _, segments := range []int{4, 2, 1} {
		rows = append(rows, bench.SkyBatch(db, w, segments, seed))
	}
	bench.PrintFig14(os.Stdout, rows)
	fmt.Println()
}

func runTable3(db *sky.DB, n int, seed int64) {
	fmt.Println("== Table III: recycle pool content after the batch ==")
	w := sky.SampleWorkload(db, n, seed)
	bench.PrintTable3(os.Stdout, bench.Table3(db, w))
	fmt.Println()
}

func runSubsume(db *sky.DB, seeds int, s float64, seed int64) {
	for _, k := range []int{2, 4} {
		nSeeds := seeds
		if k == 2 {
			nSeeds = seeds * 5 / 3 // B2 uses 20 seeds vs B4's 12 in the paper
		}
		fmt.Printf("== Fig. 15: combined subsumption micro-benchmark B%d (%d seeds, s=%.2f) ==\n", k, nSeeds, s)
		mb := sky.GenMicroBench(k, nSeeds, s, seed)
		bench.PrintFig15(os.Stdout, k, bench.SkySubsume(db, mb))
		fmt.Println()
	}
}
