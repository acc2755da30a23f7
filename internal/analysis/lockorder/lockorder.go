// Package lockorder checks the repo's documented lock hierarchy:
//
//   - ranked locks (see analysis.LockRanks) must be acquired in
//     strictly increasing rank order, and never re-entered;
//   - blocking I/O (file writes, fsync, pool image calls) must not
//     run under the recycler writer lock or the catalog write lock;
//   - Pool methods whose contract is "caller holds the recycler
//     writer lock" must only be called with it held (or from a
//     function itself declared writer-context);
//   - commit hooks run under the catalog write lock and must not
//     re-enter the catalog; update listeners run in the commit
//     window and must not mutate the catalog or be invoked with the
//     catalog mutex held.
//
// The pass is two-phase: an interprocedural fixed point over every
// source-loaded package computes, per function, the set of ranked
// locks it may acquire, whether it may perform I/O, and whether it
// may mutate the catalog; then each function body in the target
// package is simulated in source order with a held-lock set, with
// branch bodies simulated on copies (an acquisition inside a branch
// does not leak past it).
package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the lockorder entry point.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc:  "check lock-hierarchy order, I/O under critical locks, and catalog hook/listener re-entry",
	Run:  run,
}

// summary is one function's interprocedural facts.
type summary struct {
	acquires  map[string]bool // ranked locks acquired anywhere inside, transitively
	ioRoot    string          // one representative I/O callee ("" = none)
	traceRoot string          // one representative trace-recorder callee ("" = none)
	mutates   string          // one representative catalog mutator callee ("" = none)
	callees   map[string]bool
}

type checker struct {
	pass      *analysis.Pass
	summaries map[string]*summary
	listener  *types.Interface // catalog.UpdateListener, if loaded
}

func run(pass *analysis.Pass) error {
	c := &checker{pass: pass, summaries: map[string]*summary{}}
	for _, pkg := range pass.Universe {
		if pkg.Path == "repro/internal/catalog" {
			if obj := pkg.Pkg.Scope().Lookup("UpdateListener"); obj != nil {
				if iface, ok := obj.Type().Underlying().(*types.Interface); ok {
					c.listener = iface
				}
			}
		}
	}
	c.buildSummaries()
	for _, file := range pass.Target.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			c.checkFunc(pass.Target, fd)
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// Phase 1: interprocedural summaries.
// ---------------------------------------------------------------------

func (c *checker) buildSummaries() {
	for _, pkg := range c.pass.Universe {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				key := analysis.FuncKey(obj)
				s := &summary{acquires: map[string]bool{}, callees: map[string]bool{}}
				c.collect(pkg, fd.Body, s)
				c.summaries[key] = s
			}
		}
	}
	// Fixed point: propagate callee facts into callers.
	for changed := true; changed; {
		changed = false
		for _, s := range c.summaries {
			for callee := range s.callees {
				cs := c.summaries[callee]
				if cs == nil {
					continue
				}
				for l := range cs.acquires {
					if !s.acquires[l] {
						s.acquires[l] = true
						changed = true
					}
				}
				if s.ioRoot == "" && cs.ioRoot != "" {
					s.ioRoot = cs.ioRoot
					changed = true
				}
				if s.traceRoot == "" && cs.traceRoot != "" {
					s.traceRoot = cs.traceRoot
					changed = true
				}
				if s.mutates == "" && cs.mutates != "" {
					s.mutates = cs.mutates
					changed = true
				}
			}
		}
	}
}

// collect records one function body's direct facts.
func (c *checker) collect(pkg *analysis.PackageInfo, body ast.Node, s *summary) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if lock, op := c.lockOp(pkg.Info, call); lock != "" && acquiring(op) {
			s.acquires[lock] = true
			return true
		}
		callee := analysis.Callee(pkg.Info, call)
		if callee == nil {
			return true
		}
		key := analysis.FuncKey(callee)
		switch {
		case analysis.IOFuncs[key]:
			if s.ioRoot == "" {
				s.ioRoot = key
			}
		case analysis.TraceRecorderFuncs[key]:
			if s.traceRoot == "" {
				s.traceRoot = key
			}
		case analysis.CatalogMutators[key]:
			if s.mutates == "" {
				s.mutates = key
			}
		}
		if lock, ok := analysis.FuncHoldsOnReturn[key]; ok {
			s.acquires[lock] = true
		}
		s.callees[key] = true
		return true
	})
}

// lockOp recognises m.Lock()/RLock()/TryLock()/TryRLock()/Unlock()/
// RUnlock() on a ranked lock field, returning the lock key and the
// method name.
func (c *checker) lockOp(info *types.Info, call *ast.CallExpr) (lock, op string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "TryLock", "TryRLock", "Unlock", "RUnlock":
	default:
		return "", ""
	}
	inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	fieldKey := analysis.ResolveField(info.Selections[inner])
	if fieldKey == "" || analysis.LockRanks[fieldKey] == 0 {
		return "", ""
	}
	return fieldKey, sel.Sel.Name
}

// negatedTryLock matches a `!x.f.TryLock()` / `!x.f.TryRLock()`
// condition on a ranked lock, returning the lock key and method.
func (c *checker) negatedTryLock(info *types.Info, cond ast.Expr) (lock, op string) {
	u, ok := ast.Unparen(cond).(*ast.UnaryExpr)
	if !ok || u.Op != token.NOT {
		return "", ""
	}
	call, ok := ast.Unparen(u.X).(*ast.CallExpr)
	if !ok {
		return "", ""
	}
	lock, op = c.lockOp(info, call)
	if op != "TryLock" && op != "TryRLock" {
		return "", ""
	}
	return lock, op
}

func acquiring(op string) bool {
	return op == "Lock" || op == "RLock" || op == "TryLock" || op == "TryRLock"
}

// ---------------------------------------------------------------------
// Phase 2: per-function source-order simulation.
// ---------------------------------------------------------------------

type held struct {
	key   string
	rank  int
	write bool
}

type simCtx struct {
	pkg *analysis.PackageInfo
	// fn is the enclosing function's key; writerCtx marks functions
	// declared as running with the writer lock held.
	fn         string
	writerCtx  bool
	inListener bool
	locks      []held
}

func (s *simCtx) holds(key string) bool {
	for _, h := range s.locks {
		if h.key == key {
			return true
		}
	}
	return false
}

func (s *simCtx) clone() *simCtx {
	c := *s
	c.locks = append([]held(nil), s.locks...)
	return &c
}

func (c *checker) checkFunc(pkg *analysis.PackageInfo, fd *ast.FuncDecl) {
	obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
	if obj == nil {
		return
	}
	key := analysis.FuncKey(obj)
	ctx := &simCtx{pkg: pkg, fn: key}
	if analysis.WriterContextFuncs[key] || analysis.RequiresWriterLock[key] {
		ctx.writerCtx = true
		ctx.locks = append(ctx.locks, held{
			key:   analysis.WriterLockRequired,
			rank:  analysis.LockRanks[analysis.WriterLockRequired],
			write: true,
		})
	}
	if c.isListenerMethod(obj, fd) {
		ctx.inListener = true
	}
	c.simStmts(ctx, fd.Body.List)
}

// isListenerMethod reports whether fd implements one of the
// catalog.UpdateListener methods on a type that satisfies the
// interface.
func (c *checker) isListenerMethod(obj *types.Func, fd *ast.FuncDecl) bool {
	if c.listener == nil || fd.Recv == nil || !analysis.ListenerMethods[obj.Name()] {
		return false
	}
	sig := obj.Type().(*types.Signature)
	if sig.Recv() == nil {
		return false
	}
	recv := sig.Recv().Type()
	if types.Implements(recv, c.listener) {
		return true
	}
	if _, isPtr := recv.(*types.Pointer); !isPtr {
		return types.Implements(types.NewPointer(recv), c.listener)
	}
	return false
}

func (c *checker) simStmts(ctx *simCtx, stmts []ast.Stmt) {
	for _, st := range stmts {
		c.simStmt(ctx, st)
	}
}

func (c *checker) simStmt(ctx *simCtx, st ast.Stmt) {
	switch s := st.(type) {
	case *ast.BlockStmt:
		c.simStmts(ctx, s.List)
	case *ast.IfStmt:
		if s.Init != nil {
			c.simStmt(ctx, s.Init)
		}
		// `if !mu.TryLock() { mu.Lock() }`: the body runs only when the
		// try failed (lock NOT held), and on either path the lock is
		// held once the if completes.
		if lock, op := c.negatedTryLock(ctx.pkg.Info, s.Cond); lock != "" {
			c.simStmt(ctx.clone(), s.Body)
			if s.Else != nil {
				c.simStmt(ctx.clone(), s.Else)
			}
			c.acquire(ctx, lock, op == "TryLock", false, s.Cond.Pos())
			return
		}
		// Acquisitions in the condition (TryLock idiom) are visible to
		// the body only; neither branch's acquisitions leak past the if.
		bodyCtx := ctx.clone()
		c.simExpr(bodyCtx, s.Cond)
		c.simStmt(bodyCtx, s.Body)
		if s.Else != nil {
			c.simStmt(ctx.clone(), s.Else)
		}
	case *ast.ForStmt:
		inner := ctx.clone()
		if s.Init != nil {
			c.simStmt(inner, s.Init)
		}
		if s.Cond != nil {
			c.simExpr(inner, s.Cond)
		}
		c.simStmt(inner, s.Body)
	case *ast.RangeStmt:
		inner := ctx.clone()
		c.simExpr(inner, s.X)
		c.simStmt(inner, s.Body)
	case *ast.SwitchStmt:
		if s.Init != nil {
			c.simStmt(ctx, s.Init)
		}
		if s.Tag != nil {
			c.simExpr(ctx, s.Tag)
		}
		for _, cl := range s.Body.List {
			c.simStmts(ctx.clone(), cl.(*ast.CaseClause).Body)
		}
	case *ast.TypeSwitchStmt:
		for _, cl := range s.Body.List {
			c.simStmts(ctx.clone(), cl.(*ast.CaseClause).Body)
		}
	case *ast.SelectStmt:
		for _, cl := range s.Body.List {
			c.simStmts(ctx.clone(), cl.(*ast.CommClause).Body)
		}
	case *ast.DeferStmt:
		if lock, op := c.lockOp(ctx.pkg.Info, s.Call); lock != "" && !acquiring(op) {
			// Release at function end: the lock stays held for the rest
			// of the simulation, which is exactly the defer semantics.
			return
		}
		c.simExpr(ctx, s.Call)
	case *ast.GoStmt:
		// A new goroutine starts with no locks held; its body's own
		// acquisitions are checked when its function is simulated.
	case *ast.ExprStmt:
		c.simExpr(ctx, s.X)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			c.simExpr(ctx, e)
		}
		for _, e := range s.Lhs {
			c.simExpr(ctx, e)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			c.simExpr(ctx, e)
		}
	case *ast.DeclStmt, *ast.IncDecStmt, *ast.LabeledStmt, *ast.BranchStmt, *ast.EmptyStmt:
		ast.Inspect(st, func(n ast.Node) bool {
			if e, ok := n.(*ast.CallExpr); ok {
				c.simCall(ctx, e)
				return false
			}
			return true
		})
	default:
		ast.Inspect(st, func(n ast.Node) bool {
			if e, ok := n.(*ast.CallExpr); ok {
				c.simCall(ctx, e)
				return false
			}
			return true
		})
	}
}

// simExpr walks an expression in source order, handling calls.
func (c *checker) simExpr(ctx *simCtx, e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			c.simCall(ctx, n)
			return false
		case *ast.FuncLit:
			// Closure bodies run later, with their own lock state.
			return false
		}
		return true
	})
}

func (c *checker) simCall(ctx *simCtx, call *ast.CallExpr) {
	// Arguments evaluate first (and may themselves be calls).
	for _, a := range call.Args {
		c.simExpr(ctx, a)
	}

	info := ctx.pkg.Info
	if lock, op := c.lockOp(info, call); lock != "" {
		switch {
		case op == "Lock" || op == "RLock":
			c.acquire(ctx, lock, op == "Lock", true, call.Pos())
		case op == "TryLock" || op == "TryRLock":
			c.acquire(ctx, lock, op == "TryLock", false, call.Pos())
		case op == "Unlock" || op == "RUnlock":
			c.release(ctx, lock)
		}
		return
	}

	callee := analysis.Callee(info, call)
	if callee == nil {
		return
	}
	key := analysis.FuncKey(callee)

	// Commit-hook contract: the literal passed to SetCommitHook runs
	// under the catalog write lock.
	if key == analysis.CommitHookSetter && len(call.Args) == 1 {
		c.checkHookArg(ctx, call.Args[0])
	}

	if lock, ok := analysis.FuncHoldsOnReturn[key]; ok {
		c.acquire(ctx, lock, true, true, call.Pos())
		return
	}

	// Writer-lock contract on pool accessors.
	if analysis.RequiresWriterLock[key] && !ctx.writerCtx && !ctx.holds(analysis.WriterLockRequired) {
		c.pass.Reportf(call.Pos(),
			"call to %s requires the recycler writer lock (Recycler.mu), which is not held here",
			shortKey(key))
	}

	// Listener contract: no catalog mutation from the commit window,
	// and no listener notification while the catalog mutex is held.
	if ctx.inListener {
		if analysis.CatalogMutators[key] {
			c.pass.Reportf(call.Pos(),
				"catalog.UpdateListener method calls catalog mutator %s: re-entrant mutation inside the commit window",
				shortKey(key))
		} else if s := c.summaries[key]; s != nil && s.mutates != "" {
			c.pass.Reportf(call.Pos(),
				"catalog.UpdateListener method calls %s, which reaches catalog mutator %s",
				shortKey(key), shortKey(s.mutates))
		}
	}
	if isListenerNotify(key) && ctx.holds("repro/internal/catalog.Catalog.mu") {
		c.pass.Reportf(call.Pos(),
			"update listener notified while Catalog.mu is held; the contract delivers notifications after the lock is released")
	}

	// Direct I/O.
	if analysis.IOFuncs[key] {
		c.checkIO(ctx, key, call.Pos())
	}

	// Direct trace-recorder calls.
	if analysis.TraceRecorderFuncs[key] {
		c.checkTrace(ctx, key, call.Pos())
	}

	// Transitive effects.
	if s := c.summaries[key]; s != nil {
		for lock := range s.acquires {
			c.checkTransitiveAcquire(ctx, key, lock, call.Pos())
		}
		if s.ioRoot != "" {
			c.checkTransitiveIO(ctx, key, s.ioRoot, call.Pos())
		}
		if s.traceRoot != "" {
			c.checkTransitiveTrace(ctx, key, s.traceRoot, call.Pos())
		}
	}
}

func (c *checker) acquire(ctx *simCtx, lock string, write, blocking bool, pos token.Pos) {
	rank := analysis.LockRanks[lock]
	if blocking {
		for _, h := range ctx.locks {
			if h.rank >= rank {
				if h.key == lock {
					c.pass.Reportf(pos, "re-acquires %s, already held (self-deadlock)", shortLock(lock))
				} else {
					c.pass.Reportf(pos,
						"acquires %s (rank %d) while holding %s (rank %d); the hierarchy requires strictly increasing ranks",
						shortLock(lock), rank, shortLock(h.key), h.rank)
				}
				break
			}
		}
	}
	ctx.locks = append(ctx.locks, held{key: lock, rank: rank, write: write})
}

func (c *checker) release(ctx *simCtx, lock string) {
	for i := len(ctx.locks) - 1; i >= 0; i-- {
		if ctx.locks[i].key == lock {
			ctx.locks = append(ctx.locks[:i], ctx.locks[i+1:]...)
			return
		}
	}
}

func (c *checker) checkTransitiveAcquire(ctx *simCtx, callee, lock string, pos token.Pos) {
	rank := analysis.LockRanks[lock]
	for _, h := range ctx.locks {
		if h.rank >= rank {
			c.pass.Reportf(pos,
				"calls %s, which acquires %s (rank %d), while holding %s (rank %d)",
				shortKey(callee), shortLock(lock), rank, shortLock(h.key), h.rank)
			return
		}
	}
}

func (c *checker) checkIO(ctx *simCtx, ioFunc string, pos token.Pos) {
	if h, bad := c.ioHeld(ctx); bad {
		c.pass.Reportf(pos, "%s performs I/O while %s is held", shortKey(ioFunc), shortLock(h))
	}
}

func (c *checker) checkTransitiveIO(ctx *simCtx, callee, ioRoot string, pos token.Pos) {
	if h, bad := c.ioHeld(ctx); bad {
		c.pass.Reportf(pos, "calls %s, which performs I/O (%s), while %s is held",
			shortKey(callee), shortKey(ioRoot), shortLock(h))
	}
}

// ioHeld returns a held lock under which I/O is forbidden, if any.
func (c *checker) ioHeld(ctx *simCtx) (string, bool) {
	for _, h := range ctx.locks {
		writeOnly, critical := analysis.NoIOWhileHeld[h.key]
		if critical && (!writeOnly || h.write) {
			return h.key, true
		}
	}
	return "", false
}

func (c *checker) checkTrace(ctx *simCtx, traceFunc string, pos token.Pos) {
	if h, bad := c.traceHeld(ctx); bad {
		c.pass.Reportf(pos,
			"%s called while %s is held; trace-recorder calls must run after the lock is released (Histogram.Observe is the sanctioned in-lock observation)",
			shortKey(traceFunc), shortLock(h))
	}
}

func (c *checker) checkTransitiveTrace(ctx *simCtx, callee, traceRoot string, pos token.Pos) {
	if h, bad := c.traceHeld(ctx); bad {
		c.pass.Reportf(pos,
			"calls %s, which reaches trace recorder %s, while %s is held",
			shortKey(callee), shortKey(traceRoot), shortLock(h))
	}
}

// traceHeld returns a held lock under which trace-recorder calls are
// forbidden, if any.
func (c *checker) traceHeld(ctx *simCtx) (string, bool) {
	for _, h := range ctx.locks {
		writeOnly, critical := analysis.NoTraceWhileHeld[h.key]
		if critical && (!writeOnly || h.write) {
			return h.key, true
		}
	}
	return "", false
}

// checkHookArg analyzes a SetCommitHook argument as running under the
// catalog write lock.
func (c *checker) checkHookArg(ctx *simCtx, arg ast.Expr) {
	arg = ast.Unparen(arg)
	if lit, ok := arg.(*ast.FuncLit); ok {
		hookCtx := &simCtx{pkg: ctx.pkg, fn: ctx.fn + "$hook"}
		hookCtx.locks = append(hookCtx.locks, held{
			key:   analysis.CommitHookHeld,
			rank:  analysis.LockRanks[analysis.CommitHookHeld],
			write: true,
		})
		c.simStmts(hookCtx, lit.Body.List)
		return
	}
	// Non-literal hook (named function or method value): consult its
	// summary.
	var fn *types.Func
	switch e := arg.(type) {
	case *ast.Ident:
		fn, _ = ctx.pkg.Info.Uses[e].(*types.Func)
	case *ast.SelectorExpr:
		fn, _ = ctx.pkg.Info.Uses[e.Sel].(*types.Func)
	default:
		return
	}
	if fn == nil {
		return
	}
	key := analysis.FuncKey(fn)
	s := c.summaries[key]
	if s == nil {
		return
	}
	if s.acquires[analysis.CommitHookHeld] {
		c.pass.Reportf(arg.Pos(),
			"commit hook %s re-enters the catalog (acquires Catalog.mu); hooks run under the catalog write lock",
			shortKey(key))
	}
	if s.ioRoot != "" {
		c.pass.Reportf(arg.Pos(),
			"commit hook %s performs I/O (%s) under the catalog write lock",
			shortKey(key), shortKey(s.ioRoot))
	}
	if s.traceRoot != "" {
		c.pass.Reportf(arg.Pos(),
			"commit hook %s calls trace recorder %s under the catalog write lock",
			shortKey(key), shortKey(s.traceRoot))
	}
}

func isListenerNotify(key string) bool {
	const prefix = "repro/internal/catalog.(UpdateListener)."
	return len(key) > len(prefix) && key[:len(prefix)] == prefix
}

// shortKey trims "repro/internal/" for readable messages.
func shortKey(key string) string  { return trimRepro(key) }
func shortLock(key string) string { return trimRepro(key) }

func trimRepro(s string) string {
	const p = "repro/internal/"
	if len(s) > len(p) && s[:len(p)] == p {
		return s[len(p):]
	}
	return s
}
