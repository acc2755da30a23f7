package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro"
	"repro/internal/bat"
	"repro/internal/catalog"
	"repro/internal/recycler"
	"repro/internal/server"
	"repro/internal/sky"
	"repro/internal/tpch"
)

// config is one invocation's sizing. Everything that is not a command
// line flag is fixed here so that two runs measure the same thing.
type config struct {
	workload string
	seed     int64
	seconds  float64
	smoke    bool

	clients   int
	objects   int     // sky catalog size
	sf        float64 // TPC-H scale factor
	exploreMB int64   // sky-explore pool cap in bytes
	tpchPer   int     // instances of each query per tpch-mix cycle
	tracedOps map[string]int
	setups    int // times set-up is repeated in an end-to-end run

	root      string // checkout root
	runDir    string // scratch for this invocation (data dirs, logs)
	reprodBin string
	buildS    float64
}

// skyDBSeed is the seed cmd/reprod generates its sky catalog with, and
// tpchDBSeed the one the issue fixes for tpch-mix: the oracle
// regenerates the identical catalogs in-process.
const (
	skyDBSeed  = 17
	tpchDBSeed = 7
)

func newConfig(workload string, seed int64, seconds float64, smoke bool) config {
	c := config{
		workload: workload, seed: seed, seconds: seconds, smoke: smoke,
		clients:   min(2, runtime.NumCPU()),
		objects:   200000,
		sf:        0.05,
		exploreMB: 64_000_000,
		tpchPer:   20,
		tracedOps: map[string]int{"sky-hot": 4000, "sky-explore": 600, "sky-rw": 1000, "tpch-mix": 200},
		setups:    3,
	}
	if smoke {
		c.objects = 5000
		c.sf = 0.005
		c.exploreMB = 1_600_000
		c.tracedOps = map[string]int{"sky-hot": 200, "sky-explore": 200, "sky-rw": 200, "tpch-mix": 200}
		c.setups = 1
	}
	return c
}

// window is one measured closed-loop run against one target, plus
// everything scraped around it.
type window struct {
	setups   []float64 // seconds at reference host speed, one per repeated set-up
	recs     [][]record
	slices   []slice
	before   server.StatsResponse
	after    server.StatsResponse
	promPre  string
	promPost string
	hwmMB    float64
	heapMB   float64  // live heap after a forced collection at the end of the window
	flags    []string // flags reprod ran with

	mismatches  []string // oracle rejections
	checked     int      // answers the oracle saw
	checkpoints int
	snapshotB   int64
	recoverS    float64
	lost        int64
}

// skyFlags returns the reprod flags of a sky workload.
func skyFlags(cfg config, dataDir string, window float64, naive bool) []string {
	f := []string{"-db", "sky", "-objects", strconv.Itoa(cfg.objects)}
	switch cfg.workload {
	case "sky-explore":
		f = append(f, "-maxbytes", strconv.FormatInt(cfg.exploreMB, 10))
	case "sky-rw":
		// Four checkpoint intervals per window: at least three
		// checkpoints complete inside it.
		every := time.Duration(window / 4 * float64(time.Second)).Round(10 * time.Millisecond)
		f = append(f, "-sync", "maintain", "-data-dir", dataDir, "-wal-sync", "2ms", "-checkpoint-interval", every.String())
	}
	if naive {
		f = append(f, "-norecycle")
	}
	return f
}

// skyClients builds the workload's generators.
func skyClients(cfg config) ([]clientGen, []op) {
	switch cfg.workload {
	case "sky-hot":
		return skyHotClients(cfg.seed, cfg.clients), nil
	case "sky-explore":
		warm := 400
		if cfg.smoke {
			warm = 50
		}
		return skyExploreClients(cfg.seed, cfg.clients, warm), nil
	}
	return skyRWClients(cfg.seed, cfg.clients)
}

func skyRecyclerConfig(cfg config) recycler.Config {
	rc := recycler.Config{Admission: recycler.KeepAll, Eviction: recycler.EvictLRU, Subsumption: true}
	switch cfg.workload {
	case "sky-explore":
		rc.MaxBytes = cfg.exploreMB
	case "sky-rw":
		rc.Sync = recycler.SyncMaintain
	}
	return rc
}

// skyWindow boots reprod (setups times; the last instance is the one
// measured), warms it, drives it for the window and checks the
// answers against oracleCat — a catalog generated exactly as reprod
// generates its own. sky-rw then also runs the crash-recovery check.
func skyWindow(cfg config, oracleCat *catalog.Catalog, seconds float64, setups int, naive bool) (*window, error) {
	w := &window{}
	var srv *reprod
	var gens []clientGen
	var rwReads []op
	var dataDir string
	for i := 0; i < setups; i++ {
		if srv != nil {
			srv.kill()
		}
		dataDir = filepath.Join(cfg.runDir, fmt.Sprintf("data-%d-%v", i, naive))
		w.flags = skyFlags(cfg, dataDir, seconds, naive)
		gens, rwReads = skyClients(cfg)
		speed := hostSpeed()
		t0 := time.Now()
		var err error
		srv, err = bootReprod(cfg.reprodBin, w.flags, cfg.clients, filepath.Join(cfg.runDir, "reprod.log"))
		if err != nil {
			return nil, err
		}
		warm, _ := drive(srv, gens, 0)
		took := time.Since(t0).Seconds()
		w.setups = append(w.setups, took/((speed+hostSpeed())/2))
		if err := firstErr(warm); err != nil {
			srv.kill()
			return nil, err
		}
	}
	defer func() { srv.kill() }() // srv is replaced by the restarted instance on sky-rw

	var err error
	if w.before, err = srv.stats(); err != nil {
		return nil, err
	}
	if w.promPre, err = srv.metricsText(); err != nil {
		return nil, err
	}
	stopWatch := watchCheckpoints(filepath.Join(dataDir, "snapshot.dat"))
	// The harness is only the client here: collect its garbage at the
	// slice boundaries, where the clients are paused anyway, so that
	// its collector neither runs inside a slice nor slows a probe.
	gcPercent := debug.SetGCPercent(-1)
	w.recs, w.slices, err = measure(srv, srv.pid(), gens, seconds, runtime.GC)
	debug.SetGCPercent(gcPercent)
	w.checkpoints = stopWatch()
	if err != nil {
		return nil, err
	}
	if w.hwmMB, err = procHWM(srv.pid()); err != nil {
		return nil, err
	}
	if w.after, err = srv.stats(); err != nil {
		return nil, err
	}
	if w.promPost, err = srv.metricsText(); err != nil {
		return nil, err
	}

	oracle := repro.NewEngine(oracleCat)
	if cfg.workload != "sky-rw" {
		if w.heapMB, err = srv.heapLiveMB(); err != nil {
			return nil, err
		}
		srv.kill()
		w.verify(oracle, 1)
		return w, nil
	}

	// sky-rw: the untraced run has concurrent writers, so individual
	// reads cannot be replayed. Instead quiesce, apply every
	// acknowledged write to the shadow catalog and compare all 64
	// statements — on the live server, and again after SIGKILL and a
	// restart from the data directory.
	expect := applyAcked(oracleCat, w.recs)
	w.compareAll(srv, oracle, rwReads, expect, "live")
	if w.heapMB, err = srv.heapLiveMB(); err != nil {
		return nil, err
	}
	if fi, err := os.Stat(filepath.Join(dataDir, "snapshot.dat")); err == nil {
		w.snapshotB = fi.Size()
	}
	srv.kill()
	speed := hostSpeed()
	t0 := time.Now()
	srv, err = bootReprod(cfg.reprodBin, w.flags, cfg.clients, filepath.Join(cfg.runDir, "reprod.log"))
	if err != nil {
		return nil, fmt.Errorf("restart after SIGKILL: %w", err)
	}
	w.recoverS = time.Since(t0).Seconds() / speed
	w.lost = w.compareAll(srv, oracle, rwReads, expect, "recovered")
	return w, nil
}

// firstErr reports the first failed op of a warm-up.
func firstErr(recs [][]record) error {
	for _, client := range recs {
		for _, r := range client {
			if r.err != nil {
				return fmt.Errorf("warm-up op %q failed: %w", r.op.sql, r.err)
			}
		}
	}
	return nil
}

// watchCheckpoints counts how often the snapshot file is replaced
// until the returned stop function is called.
func watchCheckpoints(path string) (stop func() int) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	n := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last time.Time
		if fi, err := os.Stat(path); err == nil {
			last = fi.ModTime()
		}
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				if fi, err := os.Stat(path); err == nil && fi.ModTime().After(last) {
					last = fi.ModTime()
					n++
				}
			}
		}
	}()
	return func() int {
		close(done)
		wg.Wait()
		return n
	}
}

// applyAcked replays every acknowledged write of the window onto the
// shadow catalog and returns the number of live photoobj rows it must
// now hold. Clients own disjoint objid ranges and delete only their
// own earlier inserts, so per-client order is all that matters.
func applyAcked(cat *catalog.Catalog, recs [][]record) int64 {
	t := cat.MustTable(sky.Schema, "photoobj")
	live := int64(t.NumRows())
	for _, client := range recs {
		for _, r := range client {
			if !r.op.write || r.err != nil {
				continue
			}
			if r.op.row != nil {
				t.Append([]catalog.Row{r.op.row})
				live++
			} else if oid, ok := t.LookupKey("objid", r.op.objid); ok {
				t.Delete([]bat.Oid{oid})
				live--
			}
		}
	}
	return live
}

// compareAll re-issues every read statement plus a whole-table count
// on the quiesced server and compares with the oracle over the shadow
// catalog. It returns how many rows the server is missing or has too
// many of.
func (w *window) compareAll(srv *reprod, oracle *repro.Engine, reads []op, expectRows int64, phase string) int64 {
	for _, o := range reads {
		w.checked++
		rep, err := srv.do(0, o)
		want, werr := oracleAnswer(oracle, o)
		if err != nil || werr != nil || rep.answer != want {
			w.mismatches = append(w.mismatches, fmt.Sprintf("%s %q: got %q (%v) want %q (%v)", phase, o.sql, rep.answer, err, want, werr))
		}
	}
	rep, err := srv.do(0, op{sql: "SELECT COUNT(*) FROM sky.photoobj WHERE objid >= 0"})
	want := fmt.Sprintf("count/1 %d", expectRows)
	if err != nil || rep.answer != want {
		w.mismatches = append(w.mismatches, fmt.Sprintf("%s row count: got %q (%v) want %q", phase, rep.answer, err, want))
	}
	var got int64
	if _, err := fmt.Sscanf(rep.answer, "count/1 %d", &got); err != nil {
		return expectRows
	}
	if got > expectRows {
		return got - expectRows
	}
	return expectRows - got
}

// verify checks the window's read answers against the oracle: each
// distinct (statement, answer) pair once, every stride-th op.
func (w *window) verify(oracle *repro.Engine, stride int) {
	type pair struct{ key, answer string }
	todo := map[pair]op{}
	for _, client := range w.recs {
		for i, r := range client {
			if r.err == nil && !r.op.write && i%stride == 0 {
				todo[pair{r.op.sql, r.rep.answer}] = r.op
			}
		}
	}
	pairs := make([]pair, 0, len(todo))
	for p := range todo {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].key < pairs[j].key })
	w.checked += len(pairs)
	// The servers are gone by now, so both cores are the oracle's.
	var mu sync.Mutex
	var wg sync.WaitGroup
	workers := runtime.NumCPU()
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; i < len(pairs); i += workers {
				want, err := oracleAnswer(oracle, todo[pairs[i]])
				if err != nil || want != pairs[i].answer {
					mu.Lock()
					w.mismatches = append(w.mismatches, fmt.Sprintf("%q: got %q want %q (%v)", pairs[i].key, pairs[i].answer, want, err))
					mu.Unlock()
				}
			}
		}(k)
	}
	wg.Wait()
	sort.Strings(w.mismatches)
}

// --- tpch-mix ----------------------------------------------------------------

// tpchVerifyStride bounds the oracle's share of a tpch-mix run: a
// naive TPC-H query costs more than the recycled one it checks, so the
// untraced window verifies every 8th answer and the traced run (one
// full cycle) verifies all of them.
const tpchVerifyStride = 8

func tpchRecyclerConfig() recycler.Config {
	return recycler.Config{Admission: recycler.KeepAll, Eviction: recycler.EvictLRU, Subsumption: true, MaxBytes: 256 << 20}
}

// tpchClients builds the tpch-mix generators. The warm-up is one
// instance of each query, from a cycle the measured stream never
// reaches.
func tpchClients(cfg config, qm map[int]*tpch.QueryDef) []clientGen {
	gens := tpchMixClients(cfg.seed, cfg.clients, cfg.tpchPer, qm)
	wgen := tpchMixClients(cfg.seed-1, cfg.clients, 1, qm)
	for c := range gens {
		for j := 0; j < len(tpchMixQueries)/cfg.clients; j++ {
			gens[c].warm = append(gens[c].warm, wgen[c].next())
		}
	}
	return gens
}

// tpchWindow is skyWindow for the in-process library path: generate,
// construct the engine, warm it (setups times), then drive Sessions.
func tpchWindow(cfg config, seconds float64, setups int) (*window, *tpch.DB, error) {
	w := &window{}
	var db *tpch.DB
	var eng *repro.Engine
	var gens []clientGen
	qm := tpch.QueryMap()
	for i := 0; i < setups; i++ {
		if eng != nil {
			eng.Recycler().Close()
			db, eng = nil, nil
			debug.FreeOSMemory()
		}
		speed := hostSpeed()
		t0 := time.Now()
		db = tpch.Generate(cfg.sf, tpchDBSeed)
		eng = repro.NewEngine(db.Cat, repro.WithRecycler(tpchRecyclerConfig()))
		gens = tpchClients(cfg, qm)
		target := newEngineTarget(eng, cfg.clients)
		warm, _ := drive(target, gens, 0)
		took := time.Since(t0).Seconds()
		w.setups = append(w.setups, took/((speed+hostSpeed())/2))
		if err := firstErr(warm); err != nil {
			return nil, nil, err
		}
	}
	defer eng.Recycler().Close()
	debug.FreeOSMemory()
	target := newEngineTarget(eng, cfg.clients)
	w.before, _ = target.stats() // the in-process snapshot cannot fail
	var err error
	if w.recs, w.slices, err = measure(target, os.Getpid(), gens, seconds, nil); err != nil {
		return nil, nil, err
	}
	if w.hwmMB, err = procHWM(os.Getpid()); err != nil {
		return nil, nil, err
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.heapMB = float64(ms.HeapAlloc) / (1 << 20)
	w.after, _ = target.stats()
	w.verify(repro.NewEngine(db.Cat), tpchVerifyStride)
	return w, db, nil
}

// --- traced run --------------------------------------------------------------

// tracedRun assembles two identical in-process stacks, runs the
// workload's first N ops decorated on one and undecorated on the
// other, checks every read of the decorated pass against a
// no-recycler engine on the same catalog, and writes the spans out.
func tracedRun(cfg config, m metricSet, newCat func() *catalog.Catalog) (failed int, mismatches []string, err error) {
	n := cfg.tracedOps[cfg.workload]
	var qm map[int]*tpch.QueryDef
	if cfg.workload == "tpch-mix" {
		qm = tpch.QueryMap()
	}
	pass := func(decorated bool) (passResult, error) {
		var gens []clientGen
		rc := skyRecyclerConfig(cfg)
		if cfg.workload == "tpch-mix" {
			gens = tpchClients(cfg, qm)
			rc = tpchRecyclerConfig()
		} else {
			gens, _ = skyClients(cfg)
		}
		dir := ""
		if cfg.workload == "sky-rw" {
			dir = filepath.Join(cfg.runDir, fmt.Sprintf("traced-%v", decorated))
		}
		cat := newCat()
		s, err := newStack(cat, rc, dir)
		if err != nil {
			return passResult{}, err
		}
		var warm []op
		for _, g := range gens {
			warm = append(warm, g.warm...)
		}
		ops := make([]op, n)
		for i := range ops {
			ops[i] = gens[0].next()
		}
		var tr *tracer
		var oracle *repro.Engine
		if decorated {
			tr = &tracer{t0: time.Now()}
			oracle = repro.NewEngine(cat)
		}
		runtime.GC()
		speed := hostSpeed()
		res := runPass(s, warm, ops, tr, oracle)
		res.speed = (speed + hostSpeed()) / 2
		return res, s.close()
	}
	plain, err := pass(false)
	if err != nil {
		return 0, nil, err
	}
	dec, err := pass(true)
	if err != nil {
		return 0, nil, err
	}
	traceMetrics(m, dec, plain)
	if err := writeTrace(filepath.Join(cfg.root, "benchmark", "out", cfg.workload+".trace.json"), dec.spans); err != nil {
		return 0, nil, err
	}
	return dec.failed + plain.failed, append(dec.mismatches, plain.mismatches...), nil
}
