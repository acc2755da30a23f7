package mal

import (
	"reflect"
	"sort"
	"testing"
)

// diamondTemplate builds a plan with a known dependency shape over the
// scalar calc ops (no catalog needed):
//
//	pc0: a := calc.addInt(P0, 1)     deps: —        (param only)
//	pc1: b := calc.addInt(P0, 2)     deps: —
//	pc2: c := calc.addInt(a, b)      deps: pc0, pc1
//	pc3: exportValue("c", c)         deps: pc2
//	pc4: exportValue("b", b)         deps: pc1, pc3 (effect chain)
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

func sorted(s []int) []int {
	out := append([]int(nil), s...)
	sort.Ints(out)
	return out
}

func TestDAGEdges(t *testing.T) {
	tmpl := diamondTemplate()
	d := tmpl.DAG()

	if want := []int{0, 0, 2, 1, 2}; !reflect.DeepEqual(d.NDeps, want) {
		t.Fatalf("NDeps = %v, want %v", d.NDeps, want)
	}
	if want := []int{0, 1}; !reflect.DeepEqual(d.Roots, want) {
		t.Fatalf("Roots = %v, want %v", d.Roots, want)
	}
	succs := [][]int{{2}, {2, 4}, {3}, {4}, nil}
	for pc, want := range succs {
		if got := sorted(d.Succs[pc]); !reflect.DeepEqual(got, sorted(want)) {
			t.Fatalf("Succs[%d] = %v, want %v", pc, got, want)
		}
	}
}

func TestDAGDuplicateInstructionChained(t *testing.T) {
	b := NewBuilder("dup")
	p := b.Param("P0", VInt)
	b.Op1("calc", "addInt", p, C(IntV(1)))
	b.Op1("calc", "addInt", p, C(IntV(1))) // statically identical to pc0
	tmpl := b.Freeze()
	d := tmpl.DAG()
	if d.NDeps[1] != 1 || len(d.Succs[0]) != 1 || d.Succs[0][0] != 1 {
		t.Fatalf("duplicate instruction not chained: NDeps=%v Succs=%v", d.NDeps, d.Succs)
	}
}

func TestDAGRebuiltAfterRewrite(t *testing.T) {
	tmpl := diamondTemplate()
	old := tmpl.DAG()
	// Simulate an optimizer pass dropping the last instruction.
	tmpl.Instrs = tmpl.Instrs[:len(tmpl.Instrs)-1]
	d := tmpl.BuildDAG()
	if len(d.NDeps) != len(tmpl.Instrs) || len(old.NDeps) == len(d.NDeps) {
		t.Fatalf("BuildDAG did not track the rewritten plan: %d vs %d", len(old.NDeps), len(d.NDeps))
	}
	if got := tmpl.DAG(); got != d {
		t.Fatal("DAG() did not return the rebuilt graph")
	}
}

// TestDataflowMatchesSeq runs the same plan without helpers (program
// order) and with up to three and requires identical exports,
// including program-order export sequence.
func TestDataflowMatchesSeq(t *testing.T) {
	tmpl := diamondTemplate()

	seq := &Ctx{QueryID: 1, Workers: 1}
	if err := Run(seq, tmpl, IntV(10)); err != nil {
		t.Fatal(err)
	}
	par := &Ctx{QueryID: 2, Workers: 4}
	if err := Run(par, tmpl, IntV(10)); err != nil {
		t.Fatal(err)
	}

	if len(seq.Results) != 2 || len(par.Results) != 2 {
		t.Fatalf("results: seq=%d par=%d", len(seq.Results), len(par.Results))
	}
	for i := range seq.Results {
		if seq.Results[i].Name != par.Results[i].Name || seq.Results[i].Val.I != par.Results[i].Val.I {
			t.Fatalf("result %d differs: seq=%+v par=%+v", i, seq.Results[i], par.Results[i])
		}
	}
	// (10+1) + (10+2) = 23, then b = 12.
	if par.Results[0].Val.I != 23 || par.Results[1].Val.I != 12 {
		t.Fatalf("wrong values: %+v", par.Results)
	}
}

func TestDataflowErrorPropagates(t *testing.T) {
	b := NewBuilder("bad")
	p := b.Param("P0", VInt)
	x := b.Op1("calc", "addInt", p, C(IntV(1)))
	y := b.Op1("nosuch", "op", x)
	b.Do("sql", "exportValue", C(StrV("y")), y)
	tmpl := b.Freeze()

	ctx := &Ctx{QueryID: 1, Workers: 4}
	err := Run(ctx, tmpl, IntV(1))
	if err == nil {
		t.Fatal("want error from unknown op")
	}
	seqCtx := &Ctx{QueryID: 2, Workers: 1}
	seqErr := Run(seqCtx, tmpl, IntV(1))
	if seqErr == nil || err.Error() != seqErr.Error() {
		t.Fatalf("error mismatch:\n  dataflow: %v\n  seq:      %v", err, seqErr)
	}
}
