package mal

import (
	"errors"
	"fmt"

	"repro/internal/algebra"
	"repro/internal/bat"
)

// This file registers the engine's operation set: catalogue access,
// the binary relational algebra, grouping/aggregation, column
// arithmetic and result-set export. Names follow the paper's MAL
// listings (Fig. 1) where applicable.

func init() {
	// Catalogue and persistent data access.
	RegisterOp("sql.bind", opBind)
	RegisterOp("sql.bindIdxbat", opBindIdx)
	RegisterOp("sql.exportValue", opExportValue)
	RegisterOp("sql.exportCol", opExportCol)

	// Binary relational algebra.
	for name := range filterKinds {
		RegisterOp(name, func(_ *Ctx, _ *Instr, args []Value) (Value, error) {
			p, ok := FilterPred(name, args)
			if !ok {
				return Value{}, errArity
			}
			b, err := wantBat(args[0])
			if err != nil {
				return Value{}, err
			}
			return BatV(algebra.Filter(b, p)), nil
		})
	}
	RegisterOp("algebra.join", opJoin)
	RegisterOp("algebra.semijoin", opSemijoin)
	RegisterOp("algebra.kunique", opKUnique)
	RegisterOp("algebra.markT", opMarkT)
	RegisterOp("algebra.sort", opSort)
	RegisterOp("algebra.topn", opTopN)

	// BAT viewpoint administration.
	RegisterOp("bat.reverse", opReverse)
	RegisterOp("bat.mirror", opMirror)

	// Grouping and aggregation.
	RegisterOp("group.new", opGroupNew)
	RegisterOp("group.derive", opGroupDerive)
	RegisterOp("group.heads", opGroupHeads)
	RegisterOp("aggr.countGrp", opAggrCountGrp)
	RegisterOp("aggr.sum", opAggrSum)
	RegisterOp("aggr.avg", opAggrAvg)
	RegisterOp("aggr.min", opAggrMin)
	RegisterOp("aggr.max", opAggrMax)
	RegisterOp("aggr.count", opAggrCount)
	RegisterOp("aggr.sumFlt", opAggrSumFlt)
	RegisterOp("aggr.sumInt", opAggrSumInt)

	// Column arithmetic.
	RegisterOp("batcalc.mul", opCalcMul)
	RegisterOp("batcalc.add", opCalcAdd)
	RegisterOp("batcalc.csub", opCalcCSub)
	RegisterOp("batcalc.cadd", opCalcCAdd)
	RegisterOp("batcalc.cmul", opCalcCMul)
	RegisterOp("batcalc.int2dbl", opCalcInt2Dbl)
	RegisterOp("batcalc.year", opCalcYear)

	// Scalar temporal arithmetic.
	RegisterOp("mtime.addmonths", opAddMonths)
	RegisterOp("mtime.addyears", opAddYears)

	// Extended operations used by the TPC-H and SkyServer templates.
	RegisterOp("algebra.union", opUnion)
	RegisterOp("algebra.antisemijoin", opAntiSemijoin)
	RegisterOp("batcalc.lt", opCalcLt)
	RegisterOp("aggr.avgFlt", opAggrAvgFlt)

	// Cheap scalar arithmetic (never recycled).
	RegisterOp("calc.mulFlt", func(_ *Ctx, _ *Instr, args []Value) (Value, error) {
		return FloatV(args[0].F * args[1].F), nil
	})
	RegisterOp("calc.addFlt", func(_ *Ctx, _ *Instr, args []Value) (Value, error) {
		return FloatV(args[0].F + args[1].F), nil
	})
	RegisterOp("calc.addInt", func(_ *Ctx, _ *Instr, args []Value) (Value, error) {
		return IntV(args[0].I + args[1].I), nil
	})
}

var errArity = errors.New("wrong argument count")

// wantBat returns a kernel's BAT argument, materialising a bind at the
// version it names: the one place a kernel reads a bind's rows.
func wantBat(v Value) (*bat.BAT, error) {
	v = v.Materialised()
	if v.Kind != VBat || v.Bat == nil {
		return nil, fmt.Errorf("expected bat argument, got %v", v.Kind)
	}
	return v.Bat, nil
}

func opBind(ctx *Ctx, _ *Instr, args []Value) (Value, error) {
	if len(args) != 4 {
		return Value{}, errArity
	}
	s, ok := ctx.Pin(args[0].S + "." + args[1].S)
	if !ok {
		return Value{}, fmt.Errorf("unknown table %s.%s", args[0].S, args[1].S)
	}
	c := s.Table.Column(args[2].S)
	if c == nil {
		return Value{}, fmt.Errorf("unknown column %s", args[2].S)
	}
	return RefV(c.RefAt(s)), nil
}

func opBindIdx(ctx *Ctx, _ *Instr, args []Value) (Value, error) {
	if len(args) != 3 {
		return Value{}, errArity
	}
	s, ok := ctx.Pin(args[0].S + "." + args[1].S)
	if !ok {
		return Value{}, fmt.Errorf("unknown table %s.%s", args[0].S, args[1].S)
	}
	r, ok := s.Table.IdxRefAt(s, args[2].S)
	if !ok {
		return Value{}, fmt.Errorf("unknown join index %s on %s.%s", args[2].S, args[0].S, args[1].S)
	}
	return RefV(r), nil
}

func opExportValue(ctx *Ctx, _ *Instr, args []Value) (Value, error) {
	if len(args) != 2 {
		return Value{}, errArity
	}
	ctx.Results = append(ctx.Results, Result{Name: args[0].S, Val: args[1].Materialised()})
	return VoidV(), nil
}

func opExportCol(ctx *Ctx, _ *Instr, args []Value) (Value, error) {
	if len(args) != 2 {
		return Value{}, errArity
	}
	v := args[1].Materialised()
	if _, err := wantBat(v); err != nil {
		return Value{}, err
	}
	ctx.Results = append(ctx.Results, Result{Name: args[0].S, Val: v})
	return VoidV(), nil
}

// filterKinds names the filter instructions: each keeps the rows of
// its first argument that satisfy one algebra.Pred of this kind.
var filterKinds = map[string]algebra.PredKind{
	"algebra.select":        algebra.PredRange,
	"algebra.uselect":       algebra.PredEq,
	"algebra.selectNotNil":  algebra.PredNotNil,
	"algebra.likeselect":    algebra.PredLike,
	"algebra.notlikeselect": algebra.PredNotLike,
}

// IsFilter reports whether the named operation is a filter.
func IsFilter(name string) bool {
	_, ok := filterKinds[name]
	return ok
}

// FilterPred maps a filter instruction's arguments to the predicate it
// applies to args[0]: select(b, lo, hi, incLo, incHi) with VVoid bounds
// open, uselect(b, v), selectNotNil(b), likeselect(b, pattern) and
// notlikeselect(b, pattern). ok is false when name is not a filter or
// the argument count does not fit it. Execution, the recycler's delta
// filter rule and its subsumption analysis all read filters through
// this one mapping.
func FilterPred(name string, args []Value) (p algebra.Pred, ok bool) {
	if p.Kind, ok = filterKinds[name]; !ok {
		return p, false
	}
	switch p.Kind {
	case algebra.PredRange:
		if ok = len(args) == 5; ok {
			p.Range.IncLo, p.Range.IncHi = args[3].B, args[4].B
			if args[1].Kind != VVoid {
				p.Range.Lo = args[1].Scalar()
			}
			if args[2].Kind != VVoid {
				p.Range.Hi = args[2].Scalar()
			}
		}
	case algebra.PredEq:
		if ok = len(args) == 2; ok {
			p.V = args[1].Scalar()
		}
	case algebra.PredNotNil:
		ok = len(args) == 1
	default:
		if ok = len(args) == 2; ok {
			p.Pattern = args[1].S
		}
	}
	return p, ok
}

func opJoin(_ *Ctx, _ *Instr, args []Value) (Value, error) {
	if len(args) != 2 {
		return Value{}, errArity
	}
	l, err := wantBat(args[0])
	if err != nil {
		return Value{}, err
	}
	r, err := wantBat(args[1])
	if err != nil {
		return Value{}, err
	}
	return BatV(algebra.Join(l, r)), nil
}

func opSemijoin(_ *Ctx, _ *Instr, args []Value) (Value, error) {
	if len(args) != 2 {
		return Value{}, errArity
	}
	l, err := wantBat(args[0])
	if err != nil {
		return Value{}, err
	}
	r, err := wantBat(args[1])
	if err != nil {
		return Value{}, err
	}
	return BatV(algebra.Semijoin(l, r)), nil
}

func opKUnique(_ *Ctx, _ *Instr, args []Value) (Value, error) {
	b, err := wantBat(args[0])
	if err != nil {
		return Value{}, err
	}
	return BatV(algebra.KUnique(b)), nil
}

func opMarkT(_ *Ctx, _ *Instr, args []Value) (Value, error) {
	if len(args) != 2 {
		return Value{}, errArity
	}
	b, err := wantBat(args[0])
	if err != nil {
		return Value{}, err
	}
	return BatV(b.MarkT(args[1].O)), nil
}

func opSort(_ *Ctx, _ *Instr, args []Value) (Value, error) {
	b, err := wantBat(args[0])
	if err != nil {
		return Value{}, err
	}
	return BatV(algebra.SortByTail(b, args[1].B)), nil
}

func opTopN(_ *Ctx, _ *Instr, args []Value) (Value, error) {
	b, err := wantBat(args[0])
	if err != nil {
		return Value{}, err
	}
	return BatV(algebra.TopN(b, int(args[1].I))), nil
}

func opReverse(_ *Ctx, _ *Instr, args []Value) (Value, error) {
	b, err := wantBat(args[0])
	if err != nil {
		return Value{}, err
	}
	return BatV(b.Reverse()), nil
}

func opMirror(_ *Ctx, _ *Instr, args []Value) (Value, error) {
	b, err := wantBat(args[0])
	if err != nil {
		return Value{}, err
	}
	return BatV(b.Mirror()), nil
}

func opGroupNew(_ *Ctx, _ *Instr, args []Value) (Value, error) {
	b, err := wantBat(args[0])
	if err != nil {
		return Value{}, err
	}
	g := algebra.GroupNew(b)
	return BatV(g.Grp), nil
}

func opGroupDerive(_ *Ctx, _ *Instr, args []Value) (Value, error) {
	grp, err := wantBat(args[0])
	if err != nil {
		return Value{}, err
	}
	b, err := wantBat(args[1])
	if err != nil {
		return Value{}, err
	}
	g := regroup(grp)
	return BatV(algebra.GroupDerive(g, b).Grp), nil
}

// regroup reconstructs a Grouping descriptor from a grouping BAT
// (head: row oid, tail: dense group ids). The ids are dense, so one
// pass for the largest gives NGroups, which is all aggr.* and
// group.derive read; group.heads adds Repr (firstRows).
func regroup(grp *bat.BAT) *algebra.Grouping {
	n := 0
	for _, g := range grp.Tail.(*bat.Oids).V {
		n = max(n, int(g)+1)
	}
	return &algebra.Grouping{Grp: grp, NGroups: n}
}

// firstRows returns, per group id below n, the position of its first
// row in ids, 0 for an id no row holds. Row 0 is the first row of its
// group, so a 0 left in any other group's slot means not yet seen.
func firstRows(ids []bat.Oid, n int) []int {
	repr := make([]int, n)
	seen := 1
	for i := 1; i < len(ids) && seen < n; i++ {
		if g := ids[i]; g != ids[0] && repr[g] == 0 {
			repr[g] = i
			seen++
		}
	}
	return repr
}

func opGroupHeads(_ *Ctx, _ *Instr, args []Value) (Value, error) {
	grp, err := wantBat(args[0])
	if err != nil {
		return Value{}, err
	}
	b, err := wantBat(args[1])
	if err != nil {
		return Value{}, err
	}
	g := regroup(grp)
	g.Repr = firstRows(grp.Tail.(*bat.Oids).V, g.NGroups)
	return BatV(algebra.GroupHeads(g, b)), nil
}

func opAggrCountGrp(_ *Ctx, _ *Instr, args []Value) (Value, error) {
	grp, err := wantBat(args[0])
	if err != nil {
		return Value{}, err
	}
	g := regroup(grp)
	return BatV(algebra.AggrCount(g.Grp, g.NGroups)), nil
}

func aggr2(args []Value, f func(v, grp *bat.BAT, n int) *bat.BAT) (Value, error) {
	v, err := wantBat(args[0])
	if err != nil {
		return Value{}, err
	}
	grp, err := wantBat(args[1])
	if err != nil {
		return Value{}, err
	}
	g := regroup(grp)
	return BatV(f(v, g.Grp, g.NGroups)), nil
}

func opAggrSum(_ *Ctx, _ *Instr, args []Value) (Value, error) {
	return aggr2(args, algebra.AggrSum)
}
func opAggrAvg(_ *Ctx, _ *Instr, args []Value) (Value, error) {
	return aggr2(args, algebra.AggrAvg)
}
func opAggrMin(_ *Ctx, _ *Instr, args []Value) (Value, error) {
	return aggr2(args, algebra.AggrMin)
}
func opAggrMax(_ *Ctx, _ *Instr, args []Value) (Value, error) {
	return aggr2(args, algebra.AggrMax)
}

func opAggrCount(_ *Ctx, _ *Instr, args []Value) (Value, error) {
	b, err := wantBat(args[0])
	if err != nil {
		return Value{}, err
	}
	return IntV(algebra.Count(b)), nil
}

func opAggrSumFlt(_ *Ctx, _ *Instr, args []Value) (Value, error) {
	b, err := wantBat(args[0])
	if err != nil {
		return Value{}, err
	}
	return FloatV(algebra.SumFloat(b)), nil
}

func opAggrSumInt(_ *Ctx, _ *Instr, args []Value) (Value, error) {
	b, err := wantBat(args[0])
	if err != nil {
		return Value{}, err
	}
	return IntV(algebra.SumInt(b)), nil
}

func calc2(args []Value, f func(a, b *bat.BAT) *bat.BAT) (Value, error) {
	a, err := wantBat(args[0])
	if err != nil {
		return Value{}, err
	}
	b, err := wantBat(args[1])
	if err != nil {
		return Value{}, err
	}
	return BatV(f(a, b)), nil
}

func opCalcMul(_ *Ctx, _ *Instr, args []Value) (Value, error) {
	return calc2(args, algebra.MulFloat)
}
func opCalcAdd(_ *Ctx, _ *Instr, args []Value) (Value, error) {
	return calc2(args, algebra.AddFloat)
}

func opCalcCSub(_ *Ctx, _ *Instr, args []Value) (Value, error) {
	// csub(c, b) computes c - tail(b).
	b, err := wantBat(args[1])
	if err != nil {
		return Value{}, err
	}
	return BatV(algebra.SubFromConstFloat(b, args[0].F)), nil
}

func opCalcCAdd(_ *Ctx, _ *Instr, args []Value) (Value, error) {
	b, err := wantBat(args[0])
	if err != nil {
		return Value{}, err
	}
	return BatV(algebra.AddConstFloat(b, args[1].F)), nil
}

func opCalcCMul(_ *Ctx, _ *Instr, args []Value) (Value, error) {
	b, err := wantBat(args[0])
	if err != nil {
		return Value{}, err
	}
	return BatV(algebra.MulConstFloat(b, args[1].F)), nil
}

func opCalcInt2Dbl(_ *Ctx, _ *Instr, args []Value) (Value, error) {
	b, err := wantBat(args[0])
	if err != nil {
		return Value{}, err
	}
	return BatV(algebra.IntToFloat(b)), nil
}

func opCalcYear(_ *Ctx, _ *Instr, args []Value) (Value, error) {
	b, err := wantBat(args[0])
	if err != nil {
		return Value{}, err
	}
	return BatV(algebra.Year(b)), nil
}

func opUnion(_ *Ctx, _ *Instr, args []Value) (Value, error) {
	l, err := wantBat(args[0])
	if err != nil {
		return Value{}, err
	}
	r, err := wantBat(args[1])
	if err != nil {
		return Value{}, err
	}
	return BatV(algebra.MergeDedupByHead([]*bat.BAT{l, r})), nil
}

func opAntiSemijoin(_ *Ctx, _ *Instr, args []Value) (Value, error) {
	l, err := wantBat(args[0])
	if err != nil {
		return Value{}, err
	}
	r, err := wantBat(args[1])
	if err != nil {
		return Value{}, err
	}
	return BatV(algebra.AntiSemijoin(l, r)), nil
}

func opCalcLt(_ *Ctx, _ *Instr, args []Value) (Value, error) {
	return calc2(args, algebra.LessThan)
}

func opAggrAvgFlt(_ *Ctx, _ *Instr, args []Value) (Value, error) {
	b, err := wantBat(args[0])
	if err != nil {
		return Value{}, err
	}
	return FloatV(algebra.AvgFloat(b)), nil
}

func opAddMonths(_ *Ctx, _ *Instr, args []Value) (Value, error) {
	return DateV(algebra.AddMonths(args[0].D, int(args[1].I))), nil
}

func opAddYears(_ *Ctx, _ *Instr, args []Value) (Value, error) {
	return DateV(algebra.AddYears(args[0].D, int(args[1].I))), nil
}
