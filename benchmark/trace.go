package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro"
	"repro/internal/bat"
	"repro/internal/catalog"
	"repro/internal/mal"
	"repro/internal/recycler"
	"repro/internal/sky"
	"repro/internal/sqlfe"
	"repro/internal/store"
)

// The traced run repeats a workload's first N ops in-process, one
// client, on a stack assembled from the same public constructors
// cmd/reprod uses, with harness-side spans around the public entry
// point of every layer. Nothing inside the program is instrumented:
// the engine's own glue (engine.go, the PR 9 recorder) is therefore
// the gap between mal.engine_us_p50 and mal.run_us_per_q.

// tracer keeps the spans of one pass in memory. A nil tracer records
// nothing, which is how the undecorated comparison pass runs.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	ids   int
}

func (t *tracer) newID() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ids++
	return t.ids
}

// put records a finished span under a fresh id, or under id when the
// caller reserved one so that children could name their parent.
func (t *tracer) put(id int, name string, start, end time.Time, parent, op int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id == 0 {
		t.ids++
		id = t.ids
	}
	t.spans = append(t.spans, span{
		Name: name, ID: id, Parent: parent, Op: op,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
}

// timedHook decorates the recycler's RecyclerHook with spans. The one
// traced client sets run/op before each mal.Run; the scheduler's
// workers only read them.
type timedHook struct {
	inner *recycler.Recycler
	tr    *tracer
	run   int // span id of the enclosing mal.Run
	op    int
}

func (h *timedHook) Entry(ctx *mal.Ctx, pc int, in *mal.Instr, args []mal.Value) mal.EntryResult {
	t0 := time.Now()
	res := h.inner.Entry(ctx, pc, in, args)
	name := "recycler.entry_miss"
	if res.Hit {
		name = "recycler.entry_hit"
	}
	h.tr.put(0, name, t0, time.Now(), h.run, h.op)
	return res
}

func (h *timedHook) Exit(ctx *mal.Ctx, pc int, in *mal.Instr, args []mal.Value, ret mal.Value, elapsed time.Duration, rw *mal.Rewrite) uint64 {
	t0 := time.Now()
	// The interpreter timed the kernel call that ended just before it
	// called Exit, and hands the duration over: that is the kernel span.
	h.tr.put(0, "algebra.kernel", t0.Add(-elapsed), t0, h.run, h.op)
	prov := h.inner.Exit(ctx, pc, in, args, ret, elapsed, rw)
	h.tr.put(0, "recycler.exit", t0, time.Now(), h.run, h.op)
	return prov
}

// stack is the in-process equivalent of one reprod: catalog, optional
// durable store, recycler and SQL front end.
type stack struct {
	cat *catalog.Catalog
	st  *store.Store
	rec *recycler.Recycler
	fe  *sqlfe.Frontend
	dir string

	fsyncMu   sync.Mutex
	fsyncN    int
	fsyncTime time.Duration
	tr        *tracer
}

// newStack wires a stack over cat. With dataDir set it is durable the
// way `reprod -data-dir -wal-sync 2ms` is.
func newStack(cat *catalog.Catalog, cfg recycler.Config, dataDir string) (*stack, error) {
	s := &stack{cat: cat, dir: dataDir}
	if dataDir != "" {
		st, err := store.Open(dataDir, store.Options{
			SyncEvery: 2 * time.Millisecond,
			OnFsync: func(_ int, d time.Duration) {
				end := time.Now()
				s.fsyncMu.Lock()
				s.fsyncN++
				s.fsyncTime += d
				tr := s.tr
				s.fsyncMu.Unlock()
				tr.put(0, "store.fsync", end.Add(-d), end, 0, -1)
			},
		})
		if err != nil {
			return nil, err
		}
		if err := st.Bootstrap(cat); err != nil {
			return nil, err
		}
		s.st = st
		cfg.Spill = st.Spill()
	}
	s.rec = recycler.New(cat, cfg)
	s.fe = sqlfe.NewFrontend(cat)
	return s, nil
}

func (s *stack) close() error {
	s.rec.Close()
	if s.st != nil {
		return s.st.Close()
	}
	return nil
}

// passResult is what one in-process pass over an op list yields.
type passResult struct {
	spans      []span
	opTime     time.Duration // sum of per-op wall times (oracle checks excluded)
	speed      float64       // host speed factor around the pass (see hostSpeed)
	reads      int
	writes     int
	failed     int
	mismatches []string
	stats      recycler.Stats // deltas over the pass
	fsyncN     int
	fsyncTime  time.Duration
	walBytes   int64
}

// runPass executes warm (unrecorded) and then ops on the stack. With
// tr non-nil every layer call is wrapped in a span; with oracle
// non-nil every read is checked against it on exactly the catalog
// state the read saw.
func runPass(s *stack, warm, ops []op, tr *tracer, oracle *repro.Engine) passResult {
	var res passResult
	th := &timedHook{inner: s.rec, tr: tr}
	photo := s.cat.Table(sky.Schema, "photoobj")
	oids := map[int64]bat.Oid{}
	var qid uint64

	read := func(o op, tr *tracer, opID int) ([]mal.Result, error) {
		t0 := time.Now()
		tmpl, params := o.tmpl, o.params
		if tmpl == nil {
			var tm sqlfe.CompileTiming
			var err error
			tmpl, params, tm, err = s.fe.CompileTimed(o.sql)
			t1 := time.Now()
			if err != nil {
				return nil, err
			}
			cid := tr.newID()
			tr.put(0, "sqlfe.parse", t0, t0.Add(tm.Parse), cid, opID)
			if tm.Optimize > 0 {
				tr.put(0, "opt.optimize", t1.Add(-tm.Optimize), t1, cid, opID)
			}
			tr.put(cid, "sqlfe.compile", t0, t1, opID, opID)
		}
		qid++
		ctx := &mal.Ctx{Cat: s.cat, Hook: s.rec, QueryID: qid}
		if tr != nil {
			ctx.Hook = th
		}
		b0 := time.Now()
		s.rec.BeginQuery(qid, tmpl.ID)
		r0 := time.Now()
		tr.put(0, "recycler.begin", b0, r0, opID, opID)
		th.run, th.op = tr.newID(), opID
		err := mal.Run(ctx, tmpl, params...)
		r1 := time.Now()
		tr.put(th.run, "mal.run", r0, r1, opID, opID)
		s.rec.EndQuery(qid)
		tr.put(0, "recycler.end", r1, time.Now(), opID, opID)
		return ctx.Results, err
	}

	maintained := s.rec.Snapshot().MaintainTime
	write := func(o op, tr *tracer, opID int) error {
		t0 := time.Now()
		if o.row != nil {
			oids[o.objid] = photo.Append([]catalog.Row{o.row})
		} else {
			oid, ok := oids[o.objid]
			if !ok {
				return fmt.Errorf("delete of unknown objid %d", o.objid)
			}
			photo.Delete([]bat.Oid{oid})
		}
		t1 := time.Now()
		cid := tr.newID()
		tr.put(cid, "catalog.commit", t0, t1, opID, opID)
		// The maintenance pass runs inside the commit (the recycler is
		// a catalog listener); its duration is the recycler's own
		// counter, placed at the end of the commit interval.
		now := s.rec.Snapshot().MaintainTime
		if d := now - maintained; d > 0 {
			tr.put(0, "recycler.maintain", t1.Add(-d), t1, cid, opID)
		}
		maintained = now
		return nil
	}

	for _, o := range warm {
		if _, err := read(o, nil, 0); err != nil {
			res.failed++
		}
	}
	base := s.rec.Snapshot()
	s.fsyncMu.Lock()
	s.tr = tr
	fsyncN0, fsyncT0 := s.fsyncN, s.fsyncTime
	s.fsyncMu.Unlock()
	wal0 := int64(0)
	if s.dir != "" {
		wal0 = dirBytes(filepath.Join(s.dir, "wal"))
	}
	// Oracle checks are deferred to the next point where the catalog
	// changes (and to the end of the pass): the reads in between all
	// saw one catalog state, and a 200k-row oracle scan between two
	// 50 µs ops would leave the measured op with cold caches. Equal
	// statements with equal answers are evaluated once per batch.
	pending := map[[2]string]op{}
	flush := func() {
		for k, o := range pending {
			want, err := oracleAnswer(oracle, o)
			if err != nil || want != k[1] {
				res.failed++
				res.mismatches = append(res.mismatches, fmt.Sprintf("%q: got %q want %q (%v)", o.sql, k[1], want, err))
			}
		}
		clear(pending)
	}
	for i, o := range ops {
		if o.write {
			flush()
		}
		opID := tr.newID()
		t0 := time.Now()
		var results []mal.Result
		var err error
		if o.write {
			res.writes++
			err = write(o, tr, opID)
		} else {
			res.reads++
			results, err = read(o, tr, opID)
		}
		t1 := time.Now()
		res.opTime += t1.Sub(t0)
		name := "op.read"
		if o.write {
			name = "op.write"
		}
		tr.put(opID, name, t0, t1, 0, opID)
		if err != nil {
			res.failed++
			res.mismatches = append(res.mismatches, fmt.Sprintf("op %d %q: %v", i, o.sql, err))
			continue
		}
		if oracle != nil && !o.write {
			pending[[2]string{o.sql, canonResults(results)}] = o
		}
	}
	flush()
	sort.Strings(res.mismatches)
	if s.st != nil {
		// Let the last group commit land so its fsync is counted.
		time.Sleep(5 * time.Millisecond)
		res.walBytes = dirBytes(filepath.Join(s.dir, "wal")) - wal0
	}
	s.fsyncMu.Lock()
	s.tr = nil
	res.fsyncN, res.fsyncTime = s.fsyncN-fsyncN0, s.fsyncTime-fsyncT0
	s.fsyncMu.Unlock()
	end := s.rec.Snapshot()
	res.stats = recycler.Stats{
		Entries:          end.Entries,
		Bytes:            end.Bytes,
		Admitted:         end.Admitted - base.Admitted,
		Evicted:          end.Evicted - base.Evicted,
		Invalidated:      end.Invalidated - base.Invalidated,
		Maintained:       end.Maintained - base.Maintained,
		MaintainFallback: end.MaintainFallback - base.MaintainFallback,
		MaintainTime:     end.MaintainTime - base.MaintainTime,
		DeltaRows:        end.DeltaRows - base.DeltaRows,
	}
	if tr != nil {
		tr.mu.Lock()
		res.spans = tr.spans
		tr.mu.Unlock()
	}
	return res
}

// oracleAnswer evaluates o on the no-recycler engine.
func oracleAnswer(oracle *repro.Engine, o op) (string, error) {
	var res *repro.ExecResult
	var err error
	if o.tmpl != nil {
		res, err = oracle.Exec(o.tmpl, o.params...)
	} else {
		res, err = oracle.ExecSQL(o.sql)
	}
	if err != nil {
		return "", err
	}
	return canonResults(res.Results), nil
}

// layerTotals sums span durations, span self times and span counts by
// span name.
type layerTotals struct {
	dur, self map[string]int64
	calls     map[string]int
}

func totals(spans []span) layerTotals {
	lt := layerTotals{dur: map[string]int64{}, self: map[string]int64{}, calls: map[string]int{}}
	self := selfTimes(spans)
	for _, s := range spans {
		lt.dur[s.Name] += s.End - s.Start
		lt.self[s.Name] += self[s.ID]
		lt.calls[s.Name]++
	}
	return lt
}

// traceMetrics turns a decorated pass (and the undecorated pass over
// the same ops) into the T-sourced per-layer metrics.
func traceMetrics(m metricSet, dec, plain passResult) {
	lt := totals(dec.spans)
	q := float64(dec.reads)
	w := float64(dec.writes)
	// Span times are reported at reference host speed, like the
	// end-to-end times; fsync time is the device's and stays raw.
	perQ := func(ns int64) float64 { return ratio(float64(ns)/1e3/dec.speed, q) }
	perW := func(ns int64) float64 { return ratio(float64(ns)/1e3/dec.speed, w) }
	perCall := func(name string) float64 {
		return ratio(float64(lt.dur[name])/1e3/dec.speed, float64(lt.calls[name]))
	}

	m.set("sqlfe.parse_us_per_q", perQ(lt.dur["sqlfe.parse"]), "us", dec.reads)
	m.set("opt.optimize_us_per_q", perQ(lt.dur["opt.optimize"]), "us", dec.reads)
	m.set("sqlfe.compile_us_per_q", perQ(lt.dur["sqlfe.compile"]), "us", dec.reads)
	m.set("mal.run_us_per_q", perQ(lt.dur["mal.run"]), "us", dec.reads)
	m.set("mal.self_us_per_q", perQ(lt.self["mal.run"]), "us", dec.reads)

	entryCalls := lt.calls["recycler.entry_hit"] + lt.calls["recycler.entry_miss"]
	m.set("recycler.entry_calls_per_q", ratio(float64(entryCalls), q), "count", dec.reads)
	m.set("recycler.entry_hit_us_per_call", perCall("recycler.entry_hit"), "us", lt.calls["recycler.entry_hit"])
	m.set("recycler.entry_miss_us_per_call", perCall("recycler.entry_miss"), "us", lt.calls["recycler.entry_miss"])
	m.set("recycler.entry_us_per_q", perQ(lt.dur["recycler.entry_hit"]+lt.dur["recycler.entry_miss"]), "us", dec.reads)
	m.set("recycler.exit_calls_per_q", ratio(float64(lt.calls["recycler.exit"]), q), "count", dec.reads)
	m.set("recycler.exit_us_per_call", perCall("recycler.exit"), "us", lt.calls["recycler.exit"])
	m.set("recycler.exit_us_per_q", perQ(lt.dur["recycler.exit"]), "us", dec.reads)
	m.set("algebra.kernel_us_per_q", perQ(lt.dur["algebra.kernel"]), "us", dec.reads)
	m.set("algebra.kernel_calls_per_q", ratio(float64(lt.calls["algebra.kernel"]), q), "count", dec.reads)

	m.set("recycler.maintained_per_write", ratio(float64(dec.stats.Maintained), w), "count", dec.writes)
	m.set("recycler.maintain_fallback_per_write", ratio(float64(dec.stats.MaintainFallback), w), "count", dec.writes)
	m.set("recycler.invalidated_per_write", ratio(float64(dec.stats.Invalidated), w), "count", dec.writes)
	m.set("recycler.delta_rows_per_write", ratio(float64(dec.stats.DeltaRows), w), "count", dec.writes)
	m.set("recycler.maintain_us_per_write", ratio(us(dec.stats.MaintainTime)/dec.speed, w), "us", dec.writes)
	m.set("catalog.commit_us_per_write", perW(lt.dur["catalog.commit"]), "us", dec.writes)
	m.set("catalog.self_us_per_write", perW(lt.self["catalog.commit"]), "us", dec.writes)
	m.set("store.fsync_us_per_write", ratio(us(dec.fsyncTime), w), "us", dec.writes)
	m.set("store.fsync_count_per_write", ratio(float64(dec.fsyncN), w), "count", dec.writes)
	m.set("store.wal_bytes_per_write", ratio(float64(dec.walBytes), w), "bytes", dec.writes)

	// Everything inside an op span that no layer span covers is the
	// harness's own glue; the rest is attributed to a layer.
	opDur := lt.dur["op.read"] + lt.dur["op.write"]
	opSelf := lt.self["op.read"] + lt.self["op.write"]
	m.set("harness.layer_coverage", 1-ratio(float64(opSelf), float64(opDur)), "ratio", dec.reads+dec.writes)
	m.set("harness.trace_overhead_frac", ratio(float64(dec.opTime)/dec.speed, float64(plain.opTime)/plain.speed)-1, "ratio", dec.reads+dec.writes)
}

// writeTrace dumps the spans of a pass next to the result files.
func writeTrace(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
