// Command reprod runs the engine as a network service: a generated
// SkyServer or TPC-H catalog served over HTTP/JSON and a line-oriented
// TCP protocol, with every client's queries sharing one recycle pool —
// the paper's multi-user setting (§8) as a long-running server.
//
// Usage:
//
//	reprod -db sky -objects 200000 -http :8080 -tcp :5432
//	reprod -db tpch -sf 0.05 -admission crd -credits 5 -eviction lru -maxbytes 64000000
//	reprod -db sky -data-dir /var/lib/reprod -checkpoint-interval 5m
//
// Endpoints:
//
//	POST /query   {"sql": "SELECT ..."}  -> rows + per-query recycler stats
//	              (?trace=1 adds the per-instruction trace as JSON)
//	POST /exec    {"sql": "INSERT ..."}  -> rows affected (INSERT/DELETE subset)
//	GET  /stats   engine + server counters as JSON
//	GET  /metrics Prometheus text format (counters + stage histograms)
//	GET  /healthz liveness probe
//	GET  /debug/queries  recent-query ring + slow-query log + event ring
//	GET  /debug/pprof/   standard net/http/pprof profiles
//
// With -data-dir set the server is durable: committed DML is WAL-
// logged (fsync-batched), checkpoints fold the log into a columnar
// snapshot, and a restart recovers the catalog (snapshot + WAL tail).
// A graceful drain also writes the recycle pool as one image file, and
// the next boot pre-warms the pool from it — the first queries after a
// deploy hit instead of paying full naive cost. A crash leaves the
// previous drain's image: its records are recipes, recomputed at boot
// against the recovered catalog, so every one holds whatever committed
// since; only records over a table that no longer exists are skipped.
//
// SIGINT/SIGTERM trigger a graceful shutdown: listeners close, queued
// statements are refused, in-flight queries drain (releasing their
// recycle pool pins) and their count is logged; if the drain deadline
// is exceeded the process reports the stragglers and exits non-zero.
// A durable server then writes the warm pool's image and takes a final
// checkpoint.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime/debug"
	"syscall"
	"time"

	"repro"
	"repro/internal/catalog"
	"repro/internal/recycler"
	"repro/internal/server"
	"repro/internal/sky"
	"repro/internal/store"
	"repro/internal/tpch"
	"repro/internal/trace"
)

func main() { os.Exit(run()) }

func run() int {
	db := flag.String("db", "sky", "database to generate: sky or tpch")
	objects := flag.Int("objects", 200000, "sky object count")
	sf := flag.Float64("sf", 0.01, "TPC-H scale factor")
	httpAddr := flag.String("http", ":8080", "HTTP listen address")
	tcpAddr := flag.String("tcp", "", "TCP protocol listen address (empty = disabled)")
	maxConc := flag.Int("max-concurrency", 0, "admission gate width (0 = 2*GOMAXPROCS)")
	queueTimeout := flag.Duration("queue-timeout", 5*time.Second, "max wait for an execution slot (0 = as long as the client waits)")
	maxRows := flag.Int("max-rows", 1000, "per-column row cap on responses")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget")

	noRecycle := flag.Bool("norecycle", false, "disable the recycler (baseline serving)")
	admission := flag.String("admission", "keepall", "admission policy: keepall, crd or adapt")
	credits := flag.Int("credits", 3, "credit count k for crd/adapt")
	eviction := flag.String("eviction", "lru", "eviction policy: lru, bp or hp")
	maxBytes := flag.Int64("maxbytes", 0, "recycle pool byte limit (0 = unlimited)")
	maxEntries := flag.Int("maxentries", 0, "recycle pool entry limit (0 = unlimited)")
	subsume := flag.Bool("subsume", true, "enable singleton subsumption")
	combined := flag.Bool("combined", false, "enable combined subsumption (Algorithm 2)")
	syncMode := flag.String("sync", "invalidate", "update synchronisation: invalidate, propagate or maintain")

	slowQueryMS := flag.Int("slow-query-ms", 500, "slow-query log threshold in milliseconds (0 = slow log off)")
	traceRing := flag.Int("trace-ring", 64, "recent-query/slow/event ring sizes for /debug/queries")
	noTrace := flag.Bool("notrace", false, "disable the tracer (no per-query traces, histograms stay zero)")

	dataDir := flag.String("data-dir", "", "durable storage directory (empty = in-memory only)")
	ckptInterval := flag.Duration("checkpoint-interval", 5*time.Minute, "periodic checkpoint cadence (0 = only at shutdown)")
	walSync := flag.Duration("wal-sync", 2*time.Millisecond, "WAL fsync batching window (0 = fsync every commit)")
	flag.Parse()

	var tr *trace.Tracer
	if !*noTrace {
		tr = trace.New(trace.Config{
			SlowQuery: time.Duration(*slowQueryMS) * time.Millisecond,
			RingSize:  *traceRing,
		})
	}

	// --- storage: recover a durable catalog or generate a fresh one ---
	var st *store.Store
	var cat *catalog.Catalog
	if *dataDir != "" {
		storeOpts := store.Options{SyncEvery: *walSync}
		if tr != nil {
			// The fsync callback can run inside the catalog's commit hook,
			// so it only feeds the wait-free histogram — never the tracer's
			// event ring.
			m := tr.Metrics()
			storeOpts.OnFsync = func(records int, d time.Duration) { m.WALFsync.Observe(d) }
		}
		var err error
		st, err = store.Open(*dataDir, storeOpts)
		if err != nil {
			log.Print(err)
			return 1
		}
		if st.HasSnapshot() {
			cat, err = st.Recover()
			if err != nil {
				log.Print(err)
				return 1
			}
			torn := ""
			if st.TornTail {
				torn = " (torn final record discarded)"
			}
			fmt.Printf("store: recovered %s (commit seq %d, %d WAL records replayed%s)\n",
				*dataDir, cat.CommitSeq(), st.Replayed, torn)
		} else {
			var desc string
			cat, desc = generate(*db, *objects, *sf)
			fmt.Println(desc)
			if err := st.Bootstrap(cat); err != nil {
				log.Print(err)
				return 1
			}
			fmt.Printf("store: bootstrapped %s (initial checkpoint at commit seq %d)\n", *dataDir, cat.CommitSeq())
		}
	} else {
		var desc string
		cat, desc = generate(*db, *objects, *sf)
		fmt.Println(desc)
	}

	// Building or recovering the catalog leaves its scratch (the
	// generators' string slices and dictionary maps, decode buffers)
	// behind as garbage. Collect it before serving, so the collector's
	// first goal is sized by the live catalog rather than by the
	// build's peak, and hand the freed pages back to the OS.
	debug.FreeOSMemory()

	var opts []repro.Option
	if tr != nil {
		opts = append(opts, repro.WithTracer(tr))
		fmt.Printf("trace: ring=%d slow-query=%dms (/debug/queries, ?trace=1, pprof on /debug/pprof/)\n",
			*traceRing, *slowQueryMS)
	}
	if !*noRecycle {
		cfg, err := recyclerConfig(*admission, *credits, *eviction, *maxBytes, *maxEntries, *subsume, *combined, *syncMode)
		if err != nil {
			log.Print(err)
			return 1
		}
		if st != nil {
			cfg.Spill = st.Spill()
		}
		opts = append(opts, repro.WithRecycler(cfg))
		fmt.Printf("recycler: admission=%s eviction=%s subsume=%v combined=%v sync=%s pool-image=%v\n",
			*admission, *eviction, *subsume, *combined, *syncMode, st != nil)
	} else {
		fmt.Println("recycler: disabled")
	}
	eng := repro.NewEngine(cat, opts...)
	if rec := eng.Recycler(); rec != nil && st != nil {
		n, err := rec.Prewarm()
		if err != nil {
			// The image is a cache: a boot without it is only cold.
			log.Printf("prewarm: %v", err)
		}
		if n > 0 {
			fmt.Printf("store: pre-warmed %d pool entries from the pool image\n", n)
		}
	}
	srv := server.New(eng, server.Config{
		MaxConcurrency: *maxConc,
		QueueTimeout:   *queueTimeout,
		MaxRows:        *maxRows,
	})

	httpSrv := &http.Server{Addr: *httpAddr, Handler: srv.Handler()}
	errc := make(chan error, 2)
	go func() {
		fmt.Printf("http: listening on %s\n", *httpAddr)
		if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			errc <- err
		}
	}()
	if *tcpAddr != "" {
		ln, err := net.Listen("tcp", *tcpAddr)
		if err != nil {
			log.Print(err)
			return 1
		}
		fmt.Printf("tcp: listening on %s\n", *tcpAddr)
		go func() {
			if err := srv.ServeTCP(ln); err != nil {
				errc <- err
			}
		}()
	}

	// Periodic checkpoints fold the WAL back into the snapshot while
	// the server runs; a failure is logged, never fatal.
	ckptStop := make(chan struct{})
	if st != nil && *ckptInterval > 0 {
		go func() {
			t := time.NewTicker(*ckptInterval)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					if err := st.Checkpoint(); err != nil {
						log.Printf("checkpoint: %v", err)
					}
				case <-ckptStop:
					return
				}
			}
		}()
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Printf("\n%v: draining (budget %v) ...\n", sig, *drainTimeout)
	case err := <-errc:
		log.Printf("serve error: %v; shutting down", err)
	}
	close(ckptStop)

	exit := 0
	inflight := srv.Stats().Server.Active
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	httpSrv.Shutdown(ctx)
	if err := srv.Shutdown(ctx); err != nil {
		remaining := srv.Stats().Server.Active
		fmt.Printf("drain deadline exceeded after %v: %d of %d in-flight statements still running\n",
			*drainTimeout, remaining, inflight)
		exit = 1
	} else {
		fmt.Printf("drained %d in-flight statements within budget\n", inflight)
	}

	st2 := srv.Stats()
	fmt.Printf("served %d queries, %d execs (%d errors, %d rejected)\n",
		st2.Server.Queries, st2.Server.Execs, st2.Server.Errors, st2.Server.Rejected)
	if st2.Engine.Recycling {
		fmt.Printf("pool: %d entries / %d KB, %d reuses, %d invalidated; active queries at exit: %d\n",
			st2.Engine.Recycler.Entries, st2.Engine.Recycler.Bytes/1024,
			st2.Engine.Recycler.Reuses, st2.Engine.Recycler.Invalidated,
			st2.Engine.ActiveQueries)
	}

	// Durable shutdown: write the warm pool's image so a restart
	// pre-warms, then checkpoint so a restart replays nothing.
	if st != nil {
		if rec := eng.Recycler(); rec != nil {
			n, err := rec.SpillAll()
			if err != nil {
				// Like a failed prewarm, this costs the next boot its
				// warm pool, nothing else.
				log.Printf("pool image: %v", err)
			} else {
				fmt.Printf("store: demoted %d pool entries to the pool image\n", n)
			}
		}
		if err := st.Checkpoint(); err != nil {
			log.Printf("final checkpoint: %v", err)
			exit = 1
		}
		if err := st.Close(); err != nil {
			log.Printf("store close: %v", err)
			exit = 1
		}
	}
	return exit
}

func generate(db string, objects int, sf float64) (*catalog.Catalog, string) {
	switch db {
	case "sky":
		d := sky.Generate(objects, 17)
		return d.Cat, fmt.Sprintf("SkyServer: %d objects", d.Objects)
	case "tpch":
		d := tpch.Generate(sf, 7)
		return d.Cat, fmt.Sprintf("TPC-H SF %.3f: %d orders, %d lineitems", sf, d.Orders, d.Lineitems)
	}
	log.Fatalf("unknown db %q (want sky or tpch)", db)
	return nil, ""
}

func recyclerConfig(admission string, credits int, eviction string, maxBytes int64, maxEntries int, subsume, combined bool, syncMode string) (recycler.Config, error) {
	cfg := recycler.Config{
		Credits:             credits,
		MaxBytes:            maxBytes,
		MaxEntries:          maxEntries,
		Subsumption:         subsume,
		CombinedSubsumption: combined,
	}
	switch admission {
	case "keepall":
		cfg.Admission = recycler.KeepAll
	case "crd":
		cfg.Admission = recycler.Credit
	case "adapt":
		cfg.Admission = recycler.Adapt
	default:
		return cfg, fmt.Errorf("unknown admission policy %q (want keepall, crd or adapt)", admission)
	}
	switch eviction {
	case "lru":
		cfg.Eviction = recycler.EvictLRU
	case "bp":
		cfg.Eviction = recycler.EvictBP
	case "hp":
		cfg.Eviction = recycler.EvictHP
	default:
		return cfg, fmt.Errorf("unknown eviction policy %q (want lru, bp or hp)", eviction)
	}
	switch syncMode {
	case "invalidate":
		cfg.Sync = recycler.SyncInvalidate
	case "propagate":
		cfg.Sync = recycler.SyncPropagate
	case "maintain":
		cfg.Sync = recycler.SyncMaintain
	default:
		return cfg, fmt.Errorf("unknown sync mode %q (want invalidate, propagate or maintain)", syncMode)
	}
	return cfg, nil
}
