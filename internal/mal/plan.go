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
// result set). Side-effecting instructions root liveness in the
// dead-code pass.
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

	// layout caches what Run derives from Instrs (see Refresh). Atomic
	// so one template can be executed by many sessions concurrently.
	layout atomic.Pointer[layout]
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

// Freeze finalises and returns the template. Run's layout derives
// lazily on first use (and the optimizer refreshes it after rewriting
// the plan), so templates that go straight into opt.Optimize do not
// pay for one that is immediately discarded.
func (b *Builder) Freeze() *Template {
	b.t.NumVars = b.nextVar
	return b.t
}

// layout is what Run reads of a template besides its instructions,
// derived once per instruction list and shared by every instance.
type layout struct {
	// argOff partitions one per-query argument slab by instruction:
	// instruction i binds its arguments into slab[argOff[i]:argOff[i+1]].
	argOff []int
	// parents[i] lists, ascending, the instructions whose results
	// instruction i reads (the trace tree's edges).
	parents [][]int
}

// Refresh (re)derives the layout Run reads from the current
// instruction list. The optimizer calls it after rewriting the plan;
// templates that bypass the optimizer derive it on first Run.
func (t *Template) Refresh() {
	n := len(t.Instrs)
	l := &layout{argOff: make([]int, n+1), parents: make([][]int, n)}
	producer := make([]int, t.NumVars)
	for i := range producer {
		producer[i] = -1
	}
	for i := range t.Instrs {
		in := &t.Instrs[i]
		for _, a := range in.Args {
			if !a.IsConst() && a.Var < len(producer) && producer[a.Var] >= 0 && !slices.Contains(l.parents[i], producer[a.Var]) {
				l.parents[i] = append(l.parents[i], producer[a.Var])
			}
		}
		slices.Sort(l.parents[i])
		if in.Ret >= 0 && in.Ret < len(producer) {
			producer[in.Ret] = i
		}
		l.argOff[i+1] = l.argOff[i] + len(in.Args)
	}
	t.layout.Store(l)
}

func (t *Template) loadLayout() *layout {
	if l := t.layout.Load(); l != nil {
		return l
	}
	t.Refresh()
	return t.layout.Load()
}

// StaticSig renders an instruction's compile-time identity: operation
// plus argument slots/literals. Two instructions with equal static
// signatures compute the same value in every instance of the template
// — the identity the optimizer's CSE pass merges on. It is the
// compile-time counterpart of the run-time pool key, plan.AppendKey
// (which encodes the actual operand values in place of the slots).
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
