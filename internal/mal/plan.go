package mal

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
)

// Arg is an instruction argument: a variable reference or a literal
// constant.
type Arg struct {
	// Var is the variable slot index, or -1 for a constant.
	Var int
	// Const holds the literal when Var == -1.
	Const Value
}

// V references variable slot v.
func V(v int) Arg { return Arg{Var: v} }

// C wraps a constant value.
func C(v Value) Arg { return Arg{Var: -1, Const: v} }

// IsConst reports whether the argument is a literal.
func (a Arg) IsConst() bool { return a.Var < 0 }

// Instr is one abstract-machine instruction: module.op applied to
// arguments, assigning result(s) to variable slots. Module and Op are
// fixed at construction.
type Instr struct {
	Module, Op string
	// name caches "module.op" for instructions built by a Builder.
	name string
	// Ret is the output variable slot (all engine ops are single-
	// assignment, matching the paper's linear plans). Ret < 0 means
	// the instruction is executed for its side effects only.
	Ret  int
	Args []Arg

	// Marked is set by the recycler optimizer: the instruction is
	// subject to recycler monitoring (paper §3.1).
	Marked bool
	// ParamDep is set when the instruction (transitively) depends on a
	// template parameter; such instructions only match across template
	// instances with compatible parameter values (Fig. 2's light
	// nodes).
	ParamDep bool
}

// Name returns "module.op". Builder-made instructions carry it
// precomputed; only hand-assembled ones concatenate.
func (in *Instr) Name() string {
	if in.name != "" {
		return in.name
	}
	return in.Module + "." + in.Op
}

// HasSideEffect reports whether the instruction mutates query-visible
// state beyond its result slot (the export family appends to the shared
// result set). Side-effecting instructions keep program order relative
// to each other even when helpers run instructions concurrently, and
// root liveness in the dead-code pass.
func (in *Instr) HasSideEffect() bool {
	return in.Ret < 0 || in.Module == "sql" && (in.Op == "exportValue" || in.Op == "exportCol")
}

// Param declares a template parameter.
type Param struct {
	Name string
	Kind ValueKind
}

// Template is a parametrised query plan: the compiled form the SQL
// front end caches and re-instantiates with new literal bindings
// (paper §2.2). Templates are immutable after Freeze.
type Template struct {
	// ID uniquely identifies the template within the process; the
	// recycler's credit bookkeeping keys on (ID, pc).
	ID   uint64
	Name string

	Params  []Param
	Instrs  []Instr
	NumVars int

	// VarNames holds a debug name per variable slot.
	VarNames []string

	// dag caches the dependency graph derived from Instrs. Freeze and
	// the optimizer store it; Run loads it. Atomic so one template can
	// be executed by many sessions concurrently.
	dag atomic.Pointer[DAG]
}

var templateIDs atomic.Uint64

// Builder incrementally constructs a Template. Typical use:
//
//	b := mal.NewBuilder("q18")
//	qty := b.Param("A0", mal.VInt)
//	x1 := b.Op1("sql", "bind", mal.C(mal.StrV("sys")), ...)
//	...
//	t := b.Freeze()
type Builder struct {
	t       *Template
	nextVar int
}

// NewBuilder starts a template with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{t: &Template{ID: templateIDs.Add(1), Name: name}}
}

// Param declares the next parameter; parameters occupy the first
// variable slots in declaration order.
func (b *Builder) Param(name string, kind ValueKind) Arg {
	if len(b.t.Instrs) > 0 {
		panic("mal: parameters must be declared before instructions")
	}
	b.t.Params = append(b.t.Params, Param{Name: name, Kind: kind})
	slot := b.alloc(name)
	return V(slot)
}

func (b *Builder) alloc(name string) int {
	slot := b.nextVar
	b.nextVar++
	b.t.VarNames = append(b.t.VarNames, name)
	return slot
}

// Op1 appends an instruction with one result and returns a reference
// to the result variable.
func (b *Builder) Op1(module, op string, args ...Arg) Arg {
	slot := b.alloc(fmt.Sprintf("X%d", b.nextVar))
	b.t.Instrs = append(b.t.Instrs, Instr{Module: module, Op: op, name: module + "." + op, Ret: slot, Args: args})
	return V(slot)
}

// Do appends a side-effect instruction with no result variable.
func (b *Builder) Do(module, op string, args ...Arg) {
	b.t.Instrs = append(b.t.Instrs, Instr{Module: module, Op: op, name: module + "." + op, Ret: -1, Args: args})
}

// Freeze finalises and returns the template. The executor's dependency
// DAG derives lazily on first use (and the optimizer rebuilds it after
// rewriting the plan), so templates that
// go straight into opt.Optimize do not pay for a graph that is
// immediately discarded.
func (b *Builder) Freeze() *Template {
	b.t.NumVars = b.nextVar
	return b.t
}

// DAG is the dataflow dependency graph of a template: instruction i
// may execute once all its predecessors completed. Because plans are
// single-assignment, every argument variable has exactly one producing
// instruction, so the graph is acyclic by construction (producers
// always precede consumers in program order).
type DAG struct {
	// NDeps[i] counts the distinct predecessor instructions of
	// instruction i.
	NDeps []int
	// Succs[i] lists the instructions that must wait for instruction i.
	Succs [][]int
	// Roots lists the instructions with no predecessors — the initial
	// ready set.
	Roots []int
	// Parents[i] lists instruction i's predecessors in ascending order
	// (the trace tree's edges; shared by every trace of the template).
	Parents [][]int

	// argOff partitions one per-query argument slab by instruction:
	// instruction i binds its arguments into slab[argOff[i]:argOff[i+1]].
	argOff []int
}

// BuildDAG (re)derives the dependency DAG from the current instruction
// list and caches it on the template. Freeze calls it, and the
// optimizer calls it again after rewriting instructions.
func (t *Template) BuildDAG() *DAG {
	d := buildDAG(t)
	t.dag.Store(d)
	return d
}

// DAG returns the cached dependency graph, deriving it on first use
// for templates that bypassed Freeze.
func (t *Template) DAG() *DAG {
	if d := t.dag.Load(); d != nil {
		return d
	}
	return t.BuildDAG()
}

func buildDAG(t *Template) *DAG {
	n := len(t.Instrs)
	d := &DAG{NDeps: make([]int, n), Succs: make([][]int, n), Parents: make([][]int, n), argOff: make([]int, n+1)}
	producer := make([]int, t.NumVars)
	for i := range producer {
		producer[i] = -1
	}
	lastEffect := -1
	// sameSig chains statically identical instructions so a later
	// duplicate still observes the earlier instance's pool admission
	// (deterministic local reuse, as in the sequential interpreter).
	sameSig := make(map[string]int, n)
	for i := range t.Instrs {
		in := &t.Instrs[i]
		preds := make([]int, 0, len(in.Args)+2)
		addPred := func(p int) {
			for _, q := range preds {
				if q == p {
					return
				}
			}
			preds = append(preds, p)
			d.Succs[p] = append(d.Succs[p], i)
			d.NDeps[i]++
		}
		for _, a := range in.Args {
			if !a.IsConst() && a.Var < len(producer) && producer[a.Var] >= 0 {
				addPred(producer[a.Var])
			}
		}
		if in.HasSideEffect() {
			if lastEffect >= 0 {
				addPred(lastEffect)
			}
			lastEffect = i
		}
		key := in.StaticSig()
		if prev, ok := sameSig[key]; ok {
			addPred(prev)
		}
		sameSig[key] = i
		if in.Ret >= 0 && in.Ret < len(producer) {
			producer[in.Ret] = i
		}
		if d.NDeps[i] == 0 {
			d.Roots = append(d.Roots, i)
		} else {
			slices.Sort(preds)
			d.Parents[i] = preds
		}
		d.argOff[i+1] = d.argOff[i] + len(in.Args)
	}
	return d
}

// StaticSig renders an instruction's compile-time identity: operation
// plus argument slots/literals. Two instructions with equal static
// signatures compute the same value in every instance of the template
// — the identity the optimizer's CSE pass merges on and the dataflow
// DAG chains duplicate instructions by. It is the compile-time
// counterpart of the run-time plan.Signature (which resolves variable
// slots to actual operand values).
func (in *Instr) StaticSig() string {
	var sb strings.Builder
	sb.WriteString(in.Name())
	sb.WriteByte('(')
	for i, a := range in.Args {
		if i > 0 {
			sb.WriteByte(',')
		}
		if a.IsConst() {
			// The TYPED literal key, not the display form: IntV(2)
			// and FloatV(2) both render "2" but are different
			// constants, and CSE merges on this signature — a
			// display-form collision would substitute a value of the
			// wrong kind.
			sb.WriteString(a.Const.Key())
		} else {
			fmt.Fprintf(&sb, "V%d", a.Var)
		}
	}
	sb.WriteByte(')')
	return sb.String()
}

// String renders the template as a readable MAL-like listing.
func (t *Template) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "function %s(", t.Name)
	for i, p := range t.Params {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s%s", p.Name, p.Kind)
	}
	sb.WriteString("):\n")
	for i := range t.Instrs {
		in := &t.Instrs[i]
		sb.WriteString("  ")
		if in.Marked {
			sb.WriteString("*")
		} else {
			sb.WriteString(" ")
		}
		if in.Ret >= 0 {
			fmt.Fprintf(&sb, "%s := ", t.VarNames[in.Ret])
		}
		fmt.Fprintf(&sb, "%s(", in.Name())
		for j, a := range in.Args {
			if j > 0 {
				sb.WriteString(", ")
			}
			if a.IsConst() {
				sb.WriteString(a.Const.String())
			} else {
				sb.WriteString(t.VarNames[a.Var])
			}
		}
		sb.WriteString(")\n")
	}
	return sb.String()
}

// MarkedCount returns the number of instructions marked for recycling,
// optionally excluding data-access binds, which the paper's Table II
// excludes from its potential-hit counts ("the number does not include
// instructions that bind columns to variables").
func (t *Template) MarkedCount(excludeBinds bool) int {
	n := 0
	for i := range t.Instrs {
		in := &t.Instrs[i]
		if !in.Marked {
			continue
		}
		if excludeBinds && in.Module == "sql" {
			continue
		}
		n++
	}
	return n
}
