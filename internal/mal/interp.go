package mal

import (
	"fmt"
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
// hook call it from their own goroutines. Within one query both calls
// run on the goroutine that called Run, in program order, so they may
// update ctx.Stats directly; all synchronisation across queries
// (including any work an implementation performs on behalf of a hit,
// such as combined subsumption's piecewise execution) is the hook's own
// responsibility. Neither call may retain args: the slice is the
// query's scratch space.
type RecyclerHook interface {
	// Entry is called before executing a marked instruction.
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

	// Trace, when non-nil, records one span per executed instruction.
	// Nil disables tracing at the cost of a pointer test per
	// instruction.
	Trace *trace.Recorder
	// Metrics, when non-nil, receives recycler-lookup latency
	// observations into the process-wide histograms.
	Metrics *trace.Metrics

	QueryID  uint64
	Template *Template
	Stack    []Value
	Stats    QueryStats
	Results  []Result

	// pins holds the one version of each table the query reads (see
	// Pin); pinBuf backs it, so a query over a few tables pins them
	// without allocating.
	pins   []catalog.Snapshot
	pinBuf [4]catalog.Snapshot
}

// Pin returns the version of the table named by qname (schema-
// qualified) that this query reads. The first call for a table pins
// its current version; every later one — from any instruction and
// from the recycler's version compare — returns the same snapshot, so
// the whole query reads one version of each table however commits
// interleave with it. False when the table
// does not exist (or the context has no catalog).
func (ctx *Ctx) Pin(qname string) (catalog.Snapshot, bool) {
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

// Run executes template t with the given parameter values: one loop
// over the instructions in program order, on the calling goroutine.
// Each instruction first binds its arguments and, when marked, asks the
// recycler hook's Entry — a pool hit completes it on the spot — and
// otherwise runs its kernel, then Exit. The first error stops the
// query, and a panic in an instruction becomes the query's error.
func Run(ctx *Ctx, t *Template, params ...Value) (err error) {
	l := t.loadLayout()
	slab, err := ctx.begin(t, params, l.argOff[len(l.argOff)-1])
	if err != nil {
		return err
	}
	start := time.Now()
	ctx.Trace.SetParents(l.parents)
	pc := 0
	defer func() {
		if r := recover(); r != nil {
			err = wrapErr(t, pc, fmt.Errorf("panic: %v", r))
		}
	}()
	for ; pc < len(t.Instrs); pc++ {
		lo, hi := l.argOff[pc], l.argOff[pc+1]
		if err := step(ctx, pc, &t.Instrs[pc], slab[lo:hi:hi]); err != nil {
			return wrapErr(t, pc, err)
		}
	}
	ctx.Stats.Elapsed = time.Since(start)
	return nil
}

// step executes instruction pc, binding its arguments into args.
func step(ctx *Ctx, pc int, in *Instr, args []Value) error {
	tr := ctx.Trace // nil when tracing is disabled: the only cost below is pointer tests
	for i, a := range in.Args {
		if a.IsConst() {
			args[i] = a.Const
		} else {
			args[i] = ctx.Stack[a.Var]
		}
	}
	fn := LookupOp(in.Name())
	if fn == nil {
		return fmt.Errorf("unknown operation")
	}
	if in.Marked && (ctx.Hook != nil || ctx.Measure) {
		ctx.Stats.Marked++
		if in.Module != "sql" {
			ctx.Stats.MarkedNonBind++
		}
	}
	monitored := in.Marked && ctx.Hook != nil
	// One clock read starts the span and, for a monitored instruction,
	// the recycler lookup: on an all-hit query clock reads are a large
	// share of what the executor itself costs.
	var spanStart time.Time
	var lookup time.Duration
	if tr != nil || monitored && ctx.Metrics != nil {
		spanStart = time.Now()
	}
	var res EntryResult
	if monitored {
		res = ctx.Hook.Entry(ctx, pc, in, args)
		if !spanStart.IsZero() {
			lookup = time.Since(spanStart)
			if ctx.Metrics != nil {
				ctx.Metrics.RecyclerLookup.Observe(lookup)
			}
		}
		if res.Hit {
			if in.Ret >= 0 {
				ctx.Stack[in.Ret] = res.Val
			}
			if tr != nil {
				tr.SetRecycle(pc, reasonOr(res.Reason, "hit"))
				tr.EndSpan(pc, in.Name(), spanStart, lookup, spanRows(args), res.Val.Tuples(), res.Val.Bytes())
			}
			return nil
		}
	}

	// A miss: run the kernel (with the rewrite's arguments, if the
	// recycler asked for one) and offer a monitored result to Exit.
	timed := in.Marked && (monitored || ctx.Measure)
	execArgs := args
	if res.Rewrite != nil {
		execArgs = res.Rewrite.Args
	}
	var start time.Time
	if timed {
		start = time.Now()
	}
	ret, err := fn(ctx, in, execArgs)
	if err != nil {
		return err
	}
	if timed {
		elapsed := time.Since(start)
		ctx.Stats.TimeInMarked += elapsed
		if monitored {
			ret.Prov = ctx.Hook.Exit(ctx, pc, in, args, ret, elapsed, res.Rewrite)
		}
	}
	if in.Ret >= 0 {
		ctx.Stack[in.Ret] = ret
	}
	if tr != nil {
		if monitored {
			tr.SetRecycle(pc, reasonOr(res.Reason, "miss"))
		}
		tr.EndSpan(pc, in.Name(), spanStart, lookup, spanRows(args), ret.Tuples(), ret.Bytes())
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
