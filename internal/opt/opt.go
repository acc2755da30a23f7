package opt

import (
	"sort"
	"sync/atomic"

	"repro/internal/mal"
)

// Options selects which passes run. The zero value runs everything —
// the normalization passes exist to make semantically equal plans
// render identically (one semantic signature from the SQL front end
// down to the recycler and its pool image), so disabling them is an
// experiment/debugging knob, not a tuning default. See docs/TUNING.md.
type Options struct {
	SkipConstFold bool
	SkipDeadCode  bool
	SkipRecycler  bool
	// SkipCommute disables canonical argument ordering for commutative
	// scalar operations.
	SkipCommute bool
	// SkipCSE disables intra-template common-subexpression
	// elimination.
	SkipCSE bool
	// SkipNormalizeSQL disables the SQL front end's query
	// normalization (canonical conjunct order, range-pair merging).
	// It is honoured by internal/sqlfe, not by Optimize itself, but
	// lives here so one Options value gates the whole normalization
	// pipeline.
	SkipNormalizeSQL bool

	// Stats, when non-nil, accumulates pass counters across Optimize
	// calls (the SQL front end threads one collector through all its
	// compiles and surfaces it in /stats and /metrics).
	Stats *Stats
}

// Stats counts the normalization work the pipeline performed. Counters
// are atomic so concurrent compiles may share one collector.
type Stats struct {
	// CSEMerged counts instructions removed by common-subexpression
	// elimination (each merged into an earlier identical instruction).
	CSEMerged atomic.Int64
	// Commuted counts commutative instructions whose arguments were
	// reordered into canonical form.
	Commuted atomic.Int64
}

// Optimize runs the pipeline over the template in place and returns
// it. Pass order matters: constant folding first (it materialises
// literals the later passes compare), then canonical argument ordering
// (so CSE sees commuted duplicates as equal), then CSE, then dead code
// and recycler marking over the final instruction list.
func Optimize(t *mal.Template, opts Options) *mal.Template {
	if !opts.SkipConstFold {
		ConstFold(t)
	}
	if !opts.SkipCommute {
		n := CommuteArgs(t)
		if opts.Stats != nil {
			opts.Stats.Commuted.Add(int64(n))
		}
	}
	if !opts.SkipCSE {
		n := CSE(t)
		if opts.Stats != nil {
			opts.Stats.CSEMerged.Add(int64(n))
		}
	}
	if !opts.SkipDeadCode {
		DeadCode(t)
	}
	if !opts.SkipRecycler {
		MarkRecycle(t)
	}
	// The passes rewrite the instruction list in place; refresh the
	// layout Run reads so it matches the final plan.
	t.Refresh()
	return t
}

// foldable lists side-effect-free scalar operations the constant
// folder may evaluate at optimization time when all arguments are
// literals.
var foldable = map[string]bool{
	"mtime.addmonths": true,
	"mtime.addyears":  true,
}

// ConstFold evaluates foldable scalar instructions whose arguments are
// all literal constants, replacing later references to their result
// with the literal. Instructions over template parameters cannot fold
// (their values arrive at run time).
func ConstFold(t *mal.Template) {
	lit := make(map[int]mal.Value) // var slot -> folded literal
	out := t.Instrs[:0]
	for i := range t.Instrs {
		in := t.Instrs[i]
		// Substitute known literals into the argument list first.
		for j, a := range in.Args {
			if !a.IsConst() {
				if v, ok := lit[a.Var]; ok {
					in.Args[j] = mal.C(v)
				}
			}
		}
		if foldable[in.Name()] && allConst(in.Args) && in.Ret >= 0 {
			ctx := &mal.Ctx{}
			args := make([]mal.Value, len(in.Args))
			for j, a := range in.Args {
				args[j] = a.Const
			}
			v, err := evalOp(ctx, &in, args)
			if err == nil {
				lit[in.Ret] = v
				continue // drop the folded instruction
			}
		}
		out = append(out, in)
	}
	t.Instrs = out
}

func evalOp(ctx *mal.Ctx, in *mal.Instr, args []mal.Value) (mal.Value, error) {
	return mal.Eval(ctx, in, args)
}

func allConst(args []mal.Arg) bool {
	for _, a := range args {
		if !a.IsConst() {
			return false
		}
	}
	return true
}

// DeadCode removes instructions whose results are never used and that
// have no side effects (everything except the sql.export* family).
func DeadCode(t *mal.Template) {
	used := make([]bool, t.NumVars)
	keep := make([]bool, len(t.Instrs))
	// Walk backwards: side-effect instructions root the liveness.
	for i := len(t.Instrs) - 1; i >= 0; i-- {
		in := &t.Instrs[i]
		if in.HasSideEffect() || (in.Ret >= 0 && used[in.Ret]) {
			keep[i] = true
			for _, a := range in.Args {
				if !a.IsConst() {
					used[a.Var] = true
				}
			}
		}
	}
	out := t.Instrs[:0]
	for i := range t.Instrs {
		if keep[i] {
			out = append(out, t.Instrs[i])
		}
	}
	t.Instrs = out
}

// commutative lists operations whose result is invariant under any
// permutation of their arguments. Only pure scalar arithmetic
// qualifies: the BAT-valued batcalc zips take their result head from
// the first operand, so swapping them is NOT semantics-preserving in
// general.
var commutative = map[string]bool{
	"calc.addInt": true,
	"calc.addFlt": true,
	"calc.mulFlt": true,
}

// CommuteArgs sorts the arguments of commutative operations into a
// canonical order (variables by slot, then constants by literal key),
// so the two spellings of a+b carry one compile-time identity — and,
// downstream, one run-time signature in the recycle pool. Returns the
// number of instructions whose argument order changed.
func CommuteArgs(t *mal.Template) int {
	n := 0
	for i := range t.Instrs {
		in := &t.Instrs[i]
		if !commutative[in.Name()] || len(in.Args) < 2 {
			continue
		}
		if sortArgsCanonical(in.Args) {
			n++
		}
	}
	return n
}

// sortArgsCanonical orders args by their canonical key and reports
// whether anything moved.
func sortArgsCanonical(args []mal.Arg) bool {
	if sort.SliceIsSorted(args, func(i, j int) bool { return argLess(args[i], args[j]) }) {
		return false
	}
	sort.SliceStable(args, func(i, j int) bool { return argLess(args[i], args[j]) })
	return true
}

// argLess orders variable references before constants, variables by
// slot, constants by typed literal key.
func argLess(a, b mal.Arg) bool {
	switch {
	case !a.IsConst() && b.IsConst():
		return true
	case a.IsConst() && !b.IsConst():
		return false
	case !a.IsConst():
		return a.Var < b.Var
	default:
		return a.Const.Key() < b.Const.Key()
	}
}

// CSE merges duplicate pure instructions: two instructions with the
// same static signature (operation + identical argument slots and
// literals) compute the same value in every template instance, so the
// later one is removed and its uses rewritten to the earlier result.
// Side-effecting instructions are never merged (each export emits a
// result). Value numbering is transitive: once X2 is rewritten to X1,
// instructions over X2 become instructions over X1 and merge with
// their X1 twins. Returns the number of instructions removed.
//
// Beyond shrinking plans, CSE canonicalises them: the SQL front end
// freely emits repeated binds and projections, and without CSE each
// duplicate is a separate recycler-monitored instruction (a guaranteed
// pool lookup per execution). Merging them before the recycler ever
// sees the plan turns that run-time dedup into a compile-time one.
func CSE(t *mal.Template) int {
	repl := make([]int, t.NumVars) // var slot -> canonical var slot
	for i := range repl {
		repl[i] = i
	}
	seen := make(map[string]int, len(t.Instrs)) // static sig -> canonical ret slot
	out := t.Instrs[:0]
	merged := 0
	for i := range t.Instrs {
		in := t.Instrs[i]
		for j, a := range in.Args {
			if !a.IsConst() {
				in.Args[j].Var = repl[a.Var]
			}
		}
		if in.HasSideEffect() || in.Ret < 0 {
			out = append(out, in)
			continue
		}
		key := in.StaticSig()
		if prev, ok := seen[key]; ok {
			repl[in.Ret] = prev
			merged++
			continue
		}
		seen[key] = in.Ret
		out = append(out, in)
	}
	t.Instrs = out
	return merged
}

// recyclableModules lists modules whose BAT-producing operations are
// of interest to the recycler. Cheap scalar expressions (mtime.*) and
// side-effecting exports are excluded: the overhead of their
// administration outweighs the expected gain (paper §3.1).
var recyclableModules = map[string]bool{
	"sql":     true, // binds only; exports filtered below
	"algebra": true,
	"bat":     true,
	"group":   true,
	"aggr":    true,
	"batcalc": true,
}

var neverRecycle = map[string]bool{
	"sql.exportValue": true,
	"sql.exportCol":   true,
}

// MarkRecycle implements the recycler optimizer: it marks an
// instruction for run-time monitoring when its operation is of
// interest and all of its BAT arguments are produced by instructions
// already marked (threads rooted at catalogue binds). Scalar arguments
// — literals, template parameters and values derived from them — are
// compared by value at run time, so they never block marking, but they
// do taint the instruction as parameter-dependent (Fig. 2's light
// nodes).
func MarkRecycle(t *mal.Template) {
	candidate := make([]bool, t.NumVars) // var produced by a marked instruction
	paramDep := make([]bool, t.NumVars)
	scalar := make([]bool, t.NumVars) // var holds a scalar (non-BAT) value
	for i := range t.Params {
		paramDep[i] = true
		scalar[i] = true
	}
	for i := range t.Instrs {
		in := &t.Instrs[i]
		name := in.Name()
		ok := recyclableModules[in.Module] && !neverRecycle[name]
		dep := false
		for _, a := range in.Args {
			if a.IsConst() {
				continue
			}
			if paramDep[a.Var] {
				dep = true
			}
			if scalar[a.Var] {
				continue // runtime value comparison suffices
			}
			if !candidate[a.Var] {
				ok = false
			}
		}
		in.Marked = ok
		in.ParamDep = dep
		if in.Ret >= 0 {
			if ok {
				candidate[in.Ret] = true
			}
			if dep {
				paramDep[in.Ret] = true
			}
			if scalarResult(in) {
				scalar[in.Ret] = true
			}
		}
	}
}

// scalarResult reports whether the instruction produces a non-BAT
// value. Used to let scalar derivations flow through marking.
func scalarResult(in *mal.Instr) bool {
	switch in.Name() {
	case "mtime.addmonths", "mtime.addyears", "aggr.count", "aggr.sumFlt", "aggr.sumInt", "aggr.avgFlt",
		"calc.mulFlt", "calc.addFlt", "calc.addInt":
		return true
	}
	return false
}
