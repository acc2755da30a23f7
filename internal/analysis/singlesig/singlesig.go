// Package singlesig enforces the PR 5 single-signature invariant:
// plan.AppendKey (and the two sanctioned compile-time spellings,
// mal.Instr.Name and mal.Instr.StaticSig) are the only identity
// derivations in the tree. Outside internal/plan, building a *new*
// identity string — fmt.Sprintf or string concatenation over
// instruction fields, signature keys or render output — and using it
// as a map key is an ad-hoc identity: two such keys drift apart the
// moment normalization changes, which is exactly the class of bug
// the canonical pipeline removed.
//
// The pass is a per-function, source-order taint analysis: identity-
// derived strings (Sprintf/concat whose operands reach mal.Instr
// fields, identity functions' results, or entry render/signature
// fields) taint the variables they are assigned to; using a tainted
// expression as a map index or map-literal key is the finding.
// Using an identity function's result *directly* as a key
// (m[in.StaticSig()]) is allowed — that is the identity, not a
// derivation.
package singlesig

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the singlesig entry point.
var Analyzer = &analysis.Analyzer{
	Name: "singlesig",
	Doc:  "forbid ad-hoc identity strings outside internal/plan; identity flows through plan.AppendKey",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if analysis.SinglesigAllowedPkgs[pass.Target.Path] {
		return nil
	}
	for _, file := range pass.Target.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, _ := pass.Target.Info.Defs[fd.Name].(*types.Func); obj != nil {
				if analysis.SinglesigAllowedFuncs[analysis.FuncKey(obj)] {
					continue
				}
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

type state struct {
	pass *analysis.Pass
	// tainted tracks local variables holding derived identity strings.
	tainted map[types.Object]bool
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	st := &state{pass: pass, tainted: map[types.Object]bool{}}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i < len(n.Lhs) && st.derived(rhs) {
					if id, ok := n.Lhs[i].(*ast.Ident); ok {
						if obj := pass.Target.Info.Defs[id]; obj != nil {
							st.tainted[obj] = true
						} else if obj := pass.Target.Info.Uses[id]; obj != nil {
							st.tainted[obj] = true
						}
					}
				}
			}
		case *ast.IndexExpr:
			if st.isMapIndex(n) && st.flaggable(n.Index) {
				st.report(n.Index.Pos())
			}
		case *ast.CompositeLit:
			if _, ok := pass.Target.Info.Types[n].Type.Underlying().(*types.Map); ok {
				for _, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok && st.flaggable(kv.Key) {
						st.report(kv.Key.Pos())
					}
				}
			}
		}
		return true
	})
}

func (st *state) report(pos token.Pos) {
	st.pass.Reportf(pos,
		"ad-hoc identity string used as a map key; identity must flow through plan.AppendKey (or mal.Instr.Name/StaticSig directly)")
}

// flaggable reports whether an expression used as a map key is a
// derived identity: a taint-carrying variable or a directly derived
// expression.
func (st *state) flaggable(e ast.Expr) bool {
	e = ast.Unparen(e)
	if id, ok := e.(*ast.Ident); ok {
		if obj := st.pass.Target.Info.Uses[id]; obj != nil && st.tainted[obj] {
			return true
		}
		return false
	}
	return st.derived(e)
}

// derived reports whether e builds a NEW string out of identity
// sources: a Sprintf/Sprint/concat whose operands reach one.
func (st *state) derived(e ast.Expr) bool {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.BinaryExpr:
		if e.Op != token.ADD || !isString(st.pass.Target.Info, e) {
			return false
		}
		return st.reachesIdentity(e.X) || st.reachesIdentity(e.Y)
	case *ast.CallExpr:
		callee := analysis.Callee(st.pass.Target.Info, e)
		if callee == nil {
			return false
		}
		key := analysis.FuncKey(callee)
		// Render output is display text, not canonical identity: keying
		// on it is always ad-hoc, even without further concatenation.
		if key == "repro/internal/plan.RenderInstr" {
			return true
		}
		if key != "fmt.Sprintf" && key != "fmt.Sprint" && key != "fmt.Sprintln" {
			return false
		}
		for _, a := range e.Args {
			if st.reachesIdentity(a) {
				return true
			}
		}
	}
	return false
}

// reachesIdentity reports whether an expression reads an identity
// source: an identity function call, an identity-bearing field, a
// mal.Instr value, or an already-tainted variable.
func (st *state) reachesIdentity(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if callee := analysis.Callee(st.pass.Target.Info, n); callee != nil {
				if analysis.IdentitySourceFuncs[analysis.FuncKey(callee)] {
					found = true
					return false
				}
			}
		case *ast.SelectorExpr:
			if key := analysis.ResolveField(st.pass.Target.Info.Selections[n]); key != "" {
				if analysis.IdentitySourceFields[key] {
					found = true
					return false
				}
			}
		case *ast.Ident:
			if obj := st.pass.Target.Info.Uses[n]; obj != nil {
				if st.tainted[obj] {
					found = true
					return false
				}
				if isInstrType(obj.Type()) {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

func (st *state) isMapIndex(ix *ast.IndexExpr) bool {
	tv, ok := st.pass.Target.Info.Types[ix.X]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

func isString(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isInstrType reports whether t is mal.Instr or *mal.Instr.
func isInstrType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "repro/internal/mal" && obj.Name() == "Instr"
}
