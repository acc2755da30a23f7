package opt

import "repro/internal/mal"

// Select-chain fusion planning. PlanFusion finds linear runs of filter
// instructions whose intermediates exist only to feed the next filter
// — the shape the SQL front end emits for conjunct chains (select →
// semijoin-switch → select → ... → uselect) — and annotates them on
// the template as FusedChains. The instructions themselves are NOT
// rewritten: static signatures, recycler marks, pool keys and the
// dependency DAG stay exactly as before, so recycling and EXPLAIN
// identity are untouched. The interpreter decides per execution
// whether a chain actually fuses (see mal.Ctx.NoFusion and the
// eligibility rule in internal/mal/fused.go).

// isBind reports whether in is a catalogue column bind.
func isBind(in *mal.Instr) bool {
	return in.Module == "sql" && in.Op == "bind" && len(in.Args) == 4
}

// bindAlignKey renders the positional-alignment identity of a bind:
// schema, table and access path. Two binds with equal keys produce
// columns over the same dense head range, so a semijoin between a
// selection of one and the other is a pure column switch. The column
// name (arg 2) is deliberately excluded. Returns "" when the bind's
// identity is not statically known.
func bindAlignKey(in *mal.Instr) string {
	for _, i := range []int{0, 1, 3} {
		if !in.Args[i].IsConst() {
			return ""
		}
	}
	return in.Args[0].Const.Key() + "|" + in.Args[1].Const.Key() + "|" + in.Args[3].Const.Key()
}

// PlanFusion annotates t with its fusable chains and returns how many
// chains were found. It must run after the rewriting passes (pcs are
// recorded) and after MarkRecycle (chains record whether any member is
// monitored).
func PlanFusion(t *mal.Template) int {
	n := len(t.Instrs)
	use := make([]int, t.NumVars)
	producer := make([]int, t.NumVars)
	consumer := make([]int, t.NumVars)
	for i := range producer {
		producer[i] = -1
		consumer[i] = -1
	}
	for i := range t.Instrs {
		in := &t.Instrs[i]
		for _, a := range in.Args {
			if !a.IsConst() {
				use[a.Var]++
				consumer[a.Var] = i // the sole consumer when use == 1
			}
		}
		if in.Ret >= 0 {
			producer[in.Ret] = i
		}
	}

	inChain := make([]bool, n)
	var chains []mal.FusedChain
	for pc := 0; pc < n; pc++ {
		in := &t.Instrs[pc]
		if inChain[pc] || !mal.IsFilter(in.Name()) || len(in.Args) == 0 || in.Args[0].IsConst() {
			continue
		}
		// Column switches are only provably aligned when the chain's
		// base column comes from a bind with static identity.
		alignKey := ""
		if bp := producer[in.Args[0].Var]; bp >= 0 && isBind(&t.Instrs[bp]) {
			alignKey = bindAlignKey(&t.Instrs[bp])
		}
		members := []int{pc}
		// After a uselect the running value is a head-projection, so
		// only a column switch may follow, never another refiner.
		headsOnly := in.Op == "uselect"
		cur := pc
		for {
			ret := t.Instrs[cur].Ret
			if ret < 0 || use[ret] != 1 {
				break
			}
			nx := consumer[ret]
			if nx < 0 || inChain[nx] {
				break
			}
			nin := &t.Instrs[nx]
			switch {
			case isSemijoinSwitch(t, nin, ret, alignKey, producer):
				headsOnly = false
			case !headsOnly && mal.IsFilter(nin.Name()) && !nin.Args[0].IsConst() && nin.Args[0].Var == ret:
				headsOnly = nin.Op == "uselect"
			default:
				goto done
			}
			members = append(members, nx)
			cur = nx
		}
	done:
		// A trailing uselect is a valid terminal, but a chain is only
		// worth fusing past its first member.
		if len(members) < 2 {
			continue
		}
		ch := mal.FusedChain{Pcs: members}
		for _, m := range members {
			inChain[m] = true
			if t.Instrs[m].Marked {
				ch.AnyMarked = true
			}
		}
		chains = append(chains, ch)
	}
	t.SetFusedChains(chains)
	return len(chains)
}

// isSemijoinSwitch reports whether nin is algebra.semijoin(col, prev)
// where prev is the chain's running result (variable ret) and col is a
// bind positionally aligned with the chain's base bind.
func isSemijoinSwitch(t *mal.Template, nin *mal.Instr, ret int, alignKey string, producer []int) bool {
	if alignKey == "" || nin.Module != "algebra" || nin.Op != "semijoin" || len(nin.Args) != 2 {
		return false
	}
	if nin.Args[1].IsConst() || nin.Args[1].Var != ret || nin.Args[0].IsConst() {
		return false
	}
	cp := producer[nin.Args[0].Var]
	return cp >= 0 && isBind(&t.Instrs[cp]) && bindAlignKey(&t.Instrs[cp]) == alignKey
}
