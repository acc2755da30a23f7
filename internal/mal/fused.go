package mal

import (
	"time"

	"repro/internal/algebra"
	"repro/internal/bat"
)

// Fused select-chain execution. The optimizer annotates templates with
// FusedChains (internal/opt.PlanFusion); at run time an eligible chain
// skips its member instructions and evaluates the whole filter chain
// in one pass at the last member's pc via algebra.Filter. The
// rewrite is invisible to the plan: signatures, pool keys and the
// dependency DAG are those of the original instructions, and the last
// member's result slot receives a value bit-identical to unfused
// execution.

// fusionEligible decides whether chain ci fuses in this context.
// Recycler-monitored chains never fuse while a hook or measurement is
// active: fusion would bypass per-instruction pool admission and the
// potential-savings accounting, changing the recycler's observable
// behaviour. Fusion therefore accelerates the naive execution path.
func fusionEligible(ctx *Ctx, ci int) bool {
	if ctx.NoFusion {
		return false
	}
	ch := &ctx.Template.fused[ci]
	return !(ch.AnyMarked && (ctx.Hook != nil || ctx.Measure))
}

// stepFused executes chain ci at its last member pc: it resolves the
// whole chain and writes the last member's result slot. Non-last
// members complete at probe time without work (their single-use
// results only exist inside the chain). The chain's internal data
// dependencies order the members, so every operand bind has completed
// by the time the last member runs.
func stepFused(ctx *Ctx, pc int, in *Instr, worker int, ci int, spanStart time.Time) error {
	ch := &ctx.Template.fused[ci]
	tr := ctx.Trace
	ret, rowsIn, err := evalFusedChain(ctx, ch)
	if err != nil {
		return err
	}
	if in.Ret >= 0 {
		ctx.Stack[in.Ret] = ret
	}
	if tr != nil {
		tr.SetFused(pc, ch.Pcs)
		tr.EndSpan(pc, in.Name(), worker, spanStart, 0, rowsIn, ret.Tuples(), ret.Bytes())
	}
	return nil
}

// evalFusedChain maps the chain's members to predicates (FilterPred;
// a semijoin member is a column switch) and runs them as one
// algebra.Filter. Column switches are checked for positional alignment
// at run time (both heads dense over the same oid range); a chain that
// fails the check falls back to per-member evaluation with chain-local
// intermediates, preserving exact semantics.
func evalFusedChain(ctx *Ctx, ch *FusedChain) (Value, int, error) {
	t := ctx.Template
	resolve := func(a Arg) Value {
		if a.IsConst() {
			return a.Const
		}
		return ctx.Stack[a.Var]
	}
	base, err := wantBat(resolve(t.Instrs[ch.Pcs[0]].Args[0]))
	if err != nil {
		return Value{}, 0, err
	}
	preds := make([]algebra.Pred, 0, len(ch.Pcs))
	for _, pc := range ch.Pcs {
		in := &t.Instrs[pc]
		args := make([]Value, len(in.Args))
		for i, a := range in.Args {
			args[i] = resolve(a)
		}
		name := in.Name()
		p, ok := FilterPred(name, args)
		if name == "algebra.semijoin" && len(args) == 2 {
			p.Kind, p.Col = algebra.PredSwitch, args[0].Bat
			ok = args[0].IsBat() && p.Col != nil && alignedHeads(base, p.Col)
		}
		if !ok {
			ret, err := evalChainUnfused(ctx, ch)
			return ret, base.Len(), err
		}
		preds = append(preds, p)
	}
	return BatV(algebra.Filter(base, preds...)), base.Len(), nil
}

// alignedHeads reports whether two BATs share a dense head over the
// identical oid range, i.e. equal positions reference equal oids.
func alignedHeads(a, b *bat.BAT) bool {
	ah, ok1 := a.Head.(*bat.DenseOids)
	bh, ok2 := b.Head.(*bat.DenseOids)
	return ok1 && ok2 && ah.Start == bh.Start && ah.N == bh.N
}

// evalChainUnfused executes the chain's members one at a time with
// intermediates held in a chain-local scope (member result slots stay
// unwritten on the stack, exactly as in fused execution) and returns
// the last member's value.
func evalChainUnfused(ctx *Ctx, ch *FusedChain) (Value, error) {
	t := ctx.Template
	local := make(map[int]Value, len(ch.Pcs))
	var ret Value
	for _, pc := range ch.Pcs {
		in := &t.Instrs[pc]
		args := make([]Value, len(in.Args))
		for i, a := range in.Args {
			if a.IsConst() {
				args[i] = a.Const
			} else if v, ok := local[a.Var]; ok {
				args[i] = v
			} else {
				args[i] = ctx.Stack[a.Var]
			}
		}
		v, err := Eval(ctx, in, args)
		if err != nil {
			return Value{}, err
		}
		if in.Ret >= 0 {
			local[in.Ret] = v
		}
		ret = v
	}
	return ret, nil
}
