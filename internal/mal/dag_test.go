package mal

import (
	"reflect"
	"testing"
)

// diamondTemplate builds a plan with a known data-dependency shape over
// the scalar calc ops (no catalog needed):
//
//	pc0: a := calc.addInt(P0, 1)     reads: —        (param only)
//	pc1: b := calc.addInt(P0, 2)     reads: —
//	pc2: c := calc.addInt(a, b)      reads: pc0, pc1
//	pc3: exportValue("c", c)         reads: pc2
//	pc4: exportValue("b", b)         reads: pc1
func diamondTemplate() *Template {
	b := NewBuilder("diamond")
	p := b.Param("P0", VInt)
	a := b.Op1("calc", "addInt", p, C(IntV(1)))
	bb := b.Op1("calc", "addInt", p, C(IntV(2)))
	c := b.Op1("calc", "addInt", a, bb)
	b.Do("sql", "exportValue", C(StrV("c")), c)
	b.Do("sql", "exportValue", C(StrV("b")), bb)
	return b.Freeze()
}

// TestDAGEdges: a template's parent lists (the trace tree's edges) hold
// the instructions whose results each instruction reads, ascending —
// data edges only, so the second export does not hang off the first.
func TestDAGEdges(t *testing.T) {
	l := diamondTemplate().loadLayout()
	if want := [][]int{nil, nil, {0, 1}, {2}, {1}}; !reflect.DeepEqual(l.parents, want) {
		t.Fatalf("parents = %v, want %v", l.parents, want)
	}
	if want := []int{0, 2, 4, 6, 8, 10}; !reflect.DeepEqual(l.argOff, want) {
		t.Fatalf("argOff = %v, want %v", l.argOff, want)
	}
}

// TestDAGRebuiltAfterRewrite: Refresh re-derives the cached layout from
// a rewritten instruction list, and Run reads the new one.
func TestDAGRebuiltAfterRewrite(t *testing.T) {
	tmpl := diamondTemplate()
	old := tmpl.loadLayout()
	// Simulate an optimizer pass dropping the last instruction.
	tmpl.Instrs = tmpl.Instrs[:len(tmpl.Instrs)-1]
	tmpl.Refresh()
	l := tmpl.loadLayout()
	if l == old || len(l.parents) != len(tmpl.Instrs) || len(l.argOff) != len(tmpl.Instrs)+1 {
		t.Fatalf("Refresh did not track the rewritten plan: %d parent lists for %d instructions", len(l.parents), len(tmpl.Instrs))
	}
	ctx := &Ctx{QueryID: 1}
	if err := Run(ctx, tmpl, IntV(10)); err != nil {
		t.Fatal(err)
	}
	// (10+1) + (10+2) = 23, and the dropped export is gone.
	if len(ctx.Results) != 1 || ctx.Results[0].Val.I != 23 {
		t.Fatalf("results = %+v, want c = 23 alone", ctx.Results)
	}
}
