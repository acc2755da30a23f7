package mal

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/trace"
)

// Rewrite describes a subsumption rewrite decided by the recycler at
// recycleEntry time: the instruction executes with Args substituted
// (e.g. the column operand replaced by a cached superset intermediate),
// and the admitted result records a derivation edge to SubsetOf
// (paper §5.1). The original template instruction is left untouched, so
// re-evaluation with other parameters remains possible.
type Rewrite struct {
	Args     []Value
	SubsetOf uint64
}

// EntryResult is the outcome of the recycler's recycleEntry operation.
type EntryResult struct {
	// Hit means the result was taken from the pool (exact match or
	// combined subsumption); Val holds it and the instruction body is
	// skipped.
	Hit bool
	Val Value
	// Rewrite, when non-nil on a miss, requests execution with
	// substituted arguments (singleton subsumption).
	Rewrite *Rewrite
	// Reason explains the decision for tracing ("hit:exact",
	// "rewrite:subsume-select", ...). Empty means unstated; the
	// interpreter then records a plain "hit" or "miss".
	Reason string
}

// RecyclerHook is the interface between the interpreter and the
// recycler run-time support (Algorithm 1). A nil hook disables
// recycling entirely.
//
// Implementations must be safe for concurrent use: sessions sharing one
// hook call it from their own goroutines, and within one query Exit may
// run on a helper goroutine (see Run) concurrently with the next
// instruction's Entry. The interpreter takes no lock around either
// call, so all synchronisation (including any work an implementation
// performs on behalf of a hit, such as combined subsumption's
// piecewise execution) is the hook's own responsibility. Mutations of
// per-query state must go through Ctx.UpdateStats. Neither call may
// retain args: the slice is the query's scratch space.
type RecyclerHook interface {
	// Entry is called before executing a marked instruction, always on
	// the goroutine that called Run.
	Entry(ctx *Ctx, pc int, in *Instr, args []Value) EntryResult
	// Exit is called after a marked instruction executed (normally or
	// through a rewrite) and decides admission to the pool. It returns
	// the provenance id assigned to the result (0 if not admitted).
	Exit(ctx *Ctx, pc int, in *Instr, args []Value, ret Value, elapsed time.Duration, rw *Rewrite) uint64
}

// Result is one exported query result (a scalar or a column).
type Result struct {
	Name string
	Val  Value
}

// QueryStats aggregates per-query execution metrics used by the
// paper's experiments (Table II, Figs. 4–15).
type QueryStats struct {
	QueryID uint64
	// Marked counts marked (monitored) instructions encountered;
	// MarkedNonBind excludes catalogue binds, matching Table II's
	// potential-hit counting.
	Marked        int
	MarkedNonBind int
	// Hits counts instructions satisfied from the recycle pool.
	Hits        int
	HitsNonBind int
	LocalHits   int // reuse of entries admitted by this same query
	GlobalHits  int // reuse of entries admitted by earlier queries
	Subsumed    int // singleton subsumption rewrites
	Combined    int // combined subsumption hits
	// TimeInMarked sums the execution time of monitored instructions
	// that actually ran (the "potential savings" of Table II).
	TimeInMarked time.Duration
	// SavedTime sums the recorded cost of reused intermediates;
	// SavedLocal/SavedGlobal split it by reuse type (Table II).
	SavedTime   time.Duration
	SavedLocal  time.Duration
	SavedGlobal time.Duration
	// SubsumeOverhead sums time spent in the combined subsumption
	// search itself (Fig. 15 bottom).
	SubsumeOverhead time.Duration
	// CombinedExec sums the piecewise execution time of combined-
	// subsumption hits (the subsumed selection time of Fig. 15).
	CombinedExec time.Duration
	// Elapsed is the wall time of the whole query.
	Elapsed time.Duration
}

// HitRatio returns hits over potential hits, both excluding binds
// (the paper's per-query hit ratio).
func (s *QueryStats) HitRatio() float64 {
	if s.MarkedNonBind == 0 {
		return 0
	}
	return float64(s.HitsNonBind) / float64(s.MarkedNonBind)
}

// Ctx is one query execution context.
type Ctx struct {
	Cat  *catalog.Catalog
	Hook RecyclerHook
	// Measure enables per-instruction timing of marked instructions
	// even without a hook (needed to report potential savings for
	// naive runs).
	Measure bool
	// Workers bounds the goroutines Run may use for this query: the
	// calling one plus at most Workers-1 helpers, each started only when
	// needed. 0 uses GOMAXPROCS; 1 means no helpers, which executes the
	// plan in program order.
	Workers int

	// Trace, when non-nil, records one span per executed instruction.
	// Span slots are written lock-free: each pc completes exactly once
	// on one goroutine, and a helper's completion channel orders its
	// writes before Finish. Nil disables tracing at the cost of a
	// pointer test per instruction.
	Trace *trace.Recorder
	// Metrics, when non-nil, receives stage-latency observations
	// (recycler lookup, schedule) into the process-wide histograms.
	Metrics *trace.Metrics

	QueryID  uint64
	Template *Template
	Stack    []Value
	Stats    QueryStats
	Results  []Result

	// mu guards Stats, Results and pins while helpers run instructions
	// of this query on several goroutines.
	mu sync.Mutex
	// pins holds the one version of each table the query reads (see
	// Pin); pinBuf backs it, so a query over a few tables pins them
	// without allocating.
	pins   []catalog.Snapshot
	pinBuf [4]catalog.Snapshot
}

// Pin returns the version of the table named by qname (schema-
// qualified) that this query reads. The first call for a table pins
// its current version; every later one — from any instruction, on any
// of the query's goroutines, and from the recycler's version compare —
// returns the same snapshot, so the whole query reads one version of
// each table however commits interleave with it. False when the table
// does not exist (or the context has no catalog).
func (ctx *Ctx) Pin(qname string) (catalog.Snapshot, bool) {
	ctx.mu.Lock()
	defer ctx.mu.Unlock()
	for _, p := range ctx.pins {
		if p.Table.QName() == qname {
			return p, true
		}
	}
	if ctx.Cat == nil {
		return catalog.Snapshot{}, false
	}
	s, ok := ctx.Cat.Pin(qname)
	if ok {
		ctx.pins = append(ctx.pins, s)
	}
	return s, ok
}

// UpdateStats applies f to the query statistics under the context lock.
// The interpreter and the recycler hook both funnel their per-query
// bookkeeping through it so concurrently executing instructions of one
// query do not race.
func (ctx *Ctx) UpdateStats(f func(*QueryStats)) {
	ctx.mu.Lock()
	f(&ctx.Stats)
	ctx.mu.Unlock()
}

// AppendResult exports one named result. Export instructions are
// chained in the dependency DAG, so results arrive in program order
// even when helpers execute them.
func (ctx *Ctx) AppendResult(r Result) {
	ctx.mu.Lock()
	ctx.Results = append(ctx.Results, r)
	ctx.mu.Unlock()
}

// begin validates the parameters and resets the context for one run.
// The stack and the per-query argument slab share one allocation; the
// slab (returned) holds nargs values.
func (ctx *Ctx) begin(t *Template, params []Value, nargs int) ([]Value, error) {
	if len(params) != len(t.Params) {
		return nil, fmt.Errorf("mal: %s expects %d params, got %d", t.Name, len(t.Params), len(params))
	}
	vals := make([]Value, t.NumVars+nargs)
	ctx.Template = t
	ctx.Stack = vals[:t.NumVars:t.NumVars]
	ctx.Results = ctx.Results[:0]
	ctx.Stats = QueryStats{QueryID: ctx.QueryID}
	ctx.pins = ctx.pinBuf[:0]
	for i, p := range params {
		if p.Kind != t.Params[i].Kind {
			return nil, fmt.Errorf("mal: %s param %s expects %v, got %v", t.Name, t.Params[i].Name, t.Params[i].Kind, p.Kind)
		}
		ctx.Stack[i] = p
	}
	return vals[t.NumVars:], nil
}

func wrapErr(t *Template, pc int, err error) error {
	return fmt.Errorf("mal: %s pc=%d %s: %w", t.Name, pc, t.Instrs[pc].Name(), err)
}

// Run executes template t with the given parameter values. There is
// one executor, and it runs on the calling goroutine: it walks the
// template's dependency DAG (derived once per template) and probes
// every instruction as soon as its predecessors completed — binding
// arguments and asking the recycler hook's Entry —
// so a pool hit completes the instruction on the spot. A miss leaves a
// kernel to execute (then Exit). The calling goroutine runs kernels
// itself; only when a kernel is ready while other instructions are
// ready too does it hand the kernel to a helper goroutine, at most
// ctx.Workers-1 of them per query, each started on first need.
// All-hit queries and chain plans therefore never start a goroutine or
// touch a channel, and with Workers == 1 the plan runs in program
// order (the ready set yields its lowest pc first).
//
// A panic in an instruction, inline or on a helper, becomes the query's
// error. On the first error the executor stops probing, drains the
// kernels in flight and returns that error.
func Run(ctx *Ctx, t *Template, params ...Value) error {
	d := t.DAG()
	slab, err := ctx.begin(t, params, d.argOff[len(d.argOff)-1])
	if err != nil {
		return err
	}
	start := time.Now()
	workers := ctx.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	x := executor{ctx: ctx, t: t, d: d, slab: slab, maxHelpers: min(workers, len(t.Instrs)) - 1}
	if err := x.run(start); err != nil {
		return err
	}
	ctx.Stats.Elapsed = time.Since(start)
	return nil
}

// executor is the state of one Run. Only the calling goroutine touches
// it; helpers see kernels and send completions.
type executor struct {
	ctx  *Ctx
	t    *Template
	d    *DAG
	slab []Value // argument slab, partitioned by d.argOff

	indeg []int32
	// ready holds the pcs whose predecessors completed, sorted
	// descending so the lowest pops off the end.
	ready []int32

	maxHelpers int
	helpers    int // started so far
	busy       int // kernels handed to helpers and not yet completed
	work       chan kernel
	done       chan completion
	err        error
}

// kernel is a probed instruction that still has to execute: its bound
// arguments and the recycler's verdict on the miss.
type kernel struct {
	pc        int
	in        *Instr
	fn        OpFunc
	args      []Value
	rw        *Rewrite
	reason    string
	lookup    time.Duration
	spanStart time.Time
	monitored bool // the hook saw the miss: Exit follows the kernel
}

type completion struct {
	pc  int
	err error
}

// run executes the plan; start is when Run began, which also starts the
// schedule stage (set-up up to the first probe).
func (x *executor) run(start time.Time) error {
	ctx, n := x.ctx, len(x.t.Instrs)
	ctx.Trace.SetParents(x.d.Parents)
	buf := make([]int32, 2*n)
	x.indeg, x.ready = buf[:n], buf[n:n]
	for pc, nd := range x.d.NDeps {
		x.indeg[pc] = int32(nd)
	}
	for i := len(x.d.Roots) - 1; i >= 0; i-- {
		x.ready = append(x.ready, int32(x.d.Roots[i]))
	}
	if ctx.Trace != nil || ctx.Metrics != nil {
		sd := time.Since(start)
		if ctx.Metrics != nil {
			ctx.Metrics.Schedule.Observe(sd)
		}
		ctx.Trace.SetSchedule(sd)
	}
	for {
		x.collect(false)
		if x.err != nil || len(x.ready) == 0 {
			if x.busy == 0 {
				break
			}
			x.collect(true)
			continue
		}
		pc := int(x.ready[len(x.ready)-1])
		x.ready = x.ready[:len(x.ready)-1]
		k, done, err := x.probe(pc)
		if err == nil && !done {
			if len(x.ready) > 0 && x.handOff(k) {
				continue
			}
			err = execute(ctx, &k, 0)
		}
		x.finish(pc, err)
	}
	if x.work != nil {
		close(x.work)
	}
	return x.err
}

// finish completes pc: the first error is kept (and stops further
// probing), otherwise successors whose last predecessor this was
// become ready.
func (x *executor) finish(pc int, err error) {
	if err != nil {
		if x.err == nil {
			x.err = wrapErr(x.t, pc, err)
		}
		return
	}
	if x.err != nil {
		return
	}
	for _, s := range x.d.Succs[pc] {
		if x.indeg[s]--; x.indeg[s] == 0 {
			i, _ := slices.BinarySearchFunc(x.ready, int32(s), func(a, b int32) int { return cmp.Compare(b, a) })
			x.ready = slices.Insert(x.ready, i, int32(s))
		}
	}
}

// handOff gives k to an idle helper, starting one if the query may
// have another. It reports false when every allowed helper is busy.
func (x *executor) handOff(k kernel) bool {
	if x.busy == x.helpers {
		if x.helpers == x.maxHelpers {
			return false
		}
		if x.work == nil {
			// Capacity maxHelpers: busy never exceeds it, so neither
			// side ever blocks on a full buffer.
			x.work = make(chan kernel, x.maxHelpers)
			x.done = make(chan completion, x.maxHelpers)
		}
		x.helpers++
		go helper(x.ctx, x.work, x.done, x.helpers)
	}
	x.busy++
	x.work <- k
	return true
}

// collect finishes the helpers' completed kernels; block waits for at
// least one.
func (x *executor) collect(block bool) {
	for x.busy > 0 {
		var c completion
		if block {
			c, block = <-x.done, false
		} else {
			select {
			case c = <-x.done:
			default:
				return
			}
		}
		x.busy--
		x.finish(c.pc, c.err)
	}
}

// helper executes handed-off kernels until the query closes work.
// Trace worker ids: 0 is the calling goroutine, helpers count from 1.
func helper(ctx *Ctx, work <-chan kernel, done chan<- completion, worker int) {
	for k := range work {
		done <- completion{k.pc, execute(ctx, &k, worker)}
	}
}

// panicked converts a recovered panic into the instruction's error.
func panicked(r any) error { return fmt.Errorf("panic: %v", r) }

// probe is the first half of an instruction: bind its arguments and
// ask the recycler. done reports the instruction complete (a pool hit);
// otherwise k is the kernel left to execute.
func (x *executor) probe(pc int) (k kernel, done bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = panicked(r)
		}
	}()
	ctx := x.ctx
	in := &x.t.Instrs[pc]
	tr := ctx.Trace // nil when tracing is disabled: the only cost below is pointer tests
	k = kernel{pc: pc, in: in}
	lo, hi := x.d.argOff[pc], x.d.argOff[pc+1]
	args := x.slab[lo:hi:hi]
	for i, a := range in.Args {
		if a.IsConst() {
			args[i] = a.Const
		} else {
			args[i] = ctx.Stack[a.Var]
		}
	}
	k.args = args
	if k.fn = LookupOp(in.Name()); k.fn == nil {
		return k, false, fmt.Errorf("unknown operation")
	}
	if in.Marked && (ctx.Hook != nil || ctx.Measure) {
		ctx.UpdateStats(func(s *QueryStats) {
			s.Marked++
			if in.Module != "sql" {
				s.MarkedNonBind++
			}
		})
	}
	monitored := in.Marked && ctx.Hook != nil
	// One clock read starts the span and, for a monitored instruction,
	// the recycler lookup: on an all-hit query clock reads are a large
	// share of what the executor itself costs.
	if tr != nil || monitored && ctx.Metrics != nil {
		k.spanStart = time.Now()
	}
	if !monitored {
		return k, false, nil
	}
	res := ctx.Hook.Entry(ctx, pc, in, args)
	if !k.spanStart.IsZero() {
		k.lookup = time.Since(k.spanStart)
		if ctx.Metrics != nil {
			ctx.Metrics.RecyclerLookup.Observe(k.lookup)
		}
	}
	if res.Hit {
		if in.Ret >= 0 {
			ctx.Stack[in.Ret] = res.Val
		}
		if tr != nil {
			tr.SetRecycle(pc, reasonOr(res.Reason, "hit"))
			tr.EndSpan(pc, in.Name(), 0, k.spanStart, k.lookup, spanRows(args), res.Val.Tuples(), res.Val.Bytes())
		}
		return k, true, nil
	}
	k.monitored, k.rw, k.reason = true, res.Rewrite, res.Reason
	return k, false, nil
}

// execute is the second half of an instruction: run the kernel (with
// the rewrite's arguments, if the recycler asked for one) and, for a
// monitored miss, offer the result to the hook's Exit.
func execute(ctx *Ctx, k *kernel, worker int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = panicked(r)
		}
	}()
	in := k.in
	timed := in.Marked && (k.monitored || ctx.Measure)
	execArgs := k.args
	if k.rw != nil {
		execArgs = k.rw.Args
	}
	var start time.Time
	if timed {
		start = time.Now()
	}
	ret, err := k.fn(ctx, in, execArgs)
	if err != nil {
		return err
	}
	if timed {
		elapsed := time.Since(start)
		ctx.UpdateStats(func(s *QueryStats) { s.TimeInMarked += elapsed })
		if k.monitored {
			ret.Prov = ctx.Hook.Exit(ctx, k.pc, in, k.args, ret, elapsed, k.rw)
		}
	}
	if in.Ret >= 0 {
		ctx.Stack[in.Ret] = ret
	}
	if tr := ctx.Trace; tr != nil {
		if k.monitored {
			tr.SetRecycle(k.pc, reasonOr(k.reason, "miss"))
		}
		tr.EndSpan(k.pc, in.Name(), worker, k.spanStart, k.lookup, spanRows(k.args), ret.Tuples(), ret.Bytes())
	}
	return nil
}

func reasonOr(r, def string) string {
	if r == "" {
		return def
	}
	return r
}

// spanRows sums the tuple counts of the column arguments.
func spanRows(args []Value) int {
	n := 0
	for _, a := range args {
		if a.IsBat() {
			n += a.Tuples()
		}
	}
	return n
}

// OpFunc implements one abstract-machine operation.
type OpFunc func(ctx *Ctx, in *Instr, args []Value) (Value, error)

var opRegistry = map[string]OpFunc{}

// RegisterOp installs an operation implementation under "module.op".
// Registration happens at package init time; later registrations
// overwrite earlier ones (used by tests to stub ops).
func RegisterOp(name string, fn OpFunc) { opRegistry[name] = fn }

// LookupOp returns the operation registered under "module.op", nil if
// none (tests wrap an op and restore it with it).
func LookupOp(name string) OpFunc { return opRegistry[name] }

// HasOp reports whether an operation is registered.
func HasOp(name string) bool { return opRegistry[name] != nil }

// Eval executes a single instruction against explicit argument values,
// outside the normal interpreter loop. The optimizer's constant folder
// and the recycler's delta propagation use it.
func Eval(ctx *Ctx, in *Instr, args []Value) (Value, error) {
	fn := LookupOp(in.Name())
	if fn == nil {
		return Value{}, fmt.Errorf("mal: unknown operation %s", in.Name())
	}
	return fn(ctx, in, args)
}
