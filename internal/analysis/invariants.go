package analysis

// This file is the single place the repo's machine-checked invariants
// are declared. The three analyzers (lockorder, atomicfield,
// singlesig) read these tables; adding a lock, an atomic
// counter, an identity function or a guarded accessor means adding a
// line here, not teaching an analyzer new code. docs/LINTING.md
// documents the procedure.

// ---------------------------------------------------------------------
// lockorder: the lock hierarchy.
//
// Ranks encode the documented acquisition order (recycler.Recycler's
// doc comment, PR 3): a lock may only be acquired while every held
// lock has a strictly smaller rank. The catalog mutex sits above the
// recycler locks because recycler code consults the catalog while
// holding its own locks (appliedLocked → Pin, the commit walk →
// Ref.Rows, whose first read of a tombstoned version fills a cache
// under the shared lock), never the reverse. A table's commit mutex sits below
// them all: a DML statement holds it from its mutation through the
// listeners' fix-up, which takes the recycler locks.
// ---------------------------------------------------------------------

// LockRanks maps "pkg/path.Type.field" of every ranked mutex to its
// level in the hierarchy.
var LockRanks = map[string]int{
	"repro/internal/catalog.Table.commitMu":     5,  // one table's DML statements, mutation to notification
	"repro/internal/recycler.Recycler.mu":       10, // writer lock (level 1)
	"repro/internal/recycler.Recycler.activeMu": 20, // active-query set (level 2)
	"repro/internal/recycler.sigShard.mu":       30, // signature index shards (level 3)
	"repro/internal/recycler.admission.mu":      40, // admission policy (leaf, level 4)
	"repro/internal/catalog.Catalog.mu":         50, // catalog RWMutex (outermost resource)
}

// FuncHoldsOnReturn names locking helpers: calling one acquires the
// named lock and leaves it held for the caller to release.
var FuncHoldsOnReturn = map[string]string{
	"repro/internal/recycler.(*Recycler).lockWriter": "repro/internal/recycler.Recycler.mu",
}

// NoIOWhileHeld lists the locks under which blocking I/O is forbidden
// (the recycler writer lock serialises the whole pool; the catalog
// write lock serialises every commit). The value records whether only
// the write side is I/O-critical (RWMutex read holders may do I/O).
var NoIOWhileHeld = map[string]bool{ // lock key -> write side only
	"repro/internal/recycler.Recycler.mu": false, // plain Mutex: any hold
	"repro/internal/catalog.Catalog.mu":   true,  // RLock holders may do I/O
}

// IOFuncs names functions/methods that perform (or may block on)
// file-system I/O. Transitive callers inherit the property.
var IOFuncs = map[string]bool{
	"os.(*File).Write":       true,
	"os.(*File).WriteString": true,
	"os.(*File).WriteAt":     true,
	"os.(*File).ReadAt":      true,
	"os.(*File).Sync":        true,
	"os.(*File).Truncate":    true,
	"os.WriteFile":           true,
	"os.ReadFile":            true,
	"os.Create":              true,
	"os.Open":                true,
	"os.OpenFile":            true,
	"os.Rename":              true,
	"os.Remove":              true,
	"os.RemoveAll":           true,
	"os.MkdirAll":            true,
	"bufio.(*Writer).Flush":  true,
	// The pool image interface: both methods are declared "perform
	// I/O" in its doc contract, so calls through it count as I/O no
	// matter which implementation is behind it.
	"repro/internal/recycler.(SpillTier).Save": true,
	"repro/internal/recycler.(SpillTier).Load": true,
}

// NoTraceWhileHeld lists the locks under which trace-recorder calls
// are forbidden (PR 9): Recorder/Tracer methods allocate and take the
// tracer's internal mutex, so a call under the recycler writer lock
// or the catalog write lock would serialise the whole pool (or every
// commit) behind the observability layer — and events emitted there
// could deadlock against a concurrent FinishQuery. Histogram.Observe
// is deliberately NOT listed in TraceRecorderFuncs: it is wait-free
// atomics, the single sanctioned in-lock observation.
var NoTraceWhileHeld = map[string]bool{ // lock key -> write side only
	"repro/internal/recycler.Recycler.mu": false, // plain Mutex: any hold
	"repro/internal/catalog.Catalog.mu":   true,  // RLock holders may trace
}

// TraceRecorderFuncs names the trace-recorder entry points the
// NoTraceWhileHeld rule applies to. Transitive callers inherit the
// property.
var TraceRecorderFuncs = map[string]bool{
	"repro/internal/trace.(*Recorder).EndSpan":      true,
	"repro/internal/trace.(*Recorder).SetRecycle":   true,
	"repro/internal/trace.(*Recorder).SetAdmission": true,
	"repro/internal/trace.(*Recorder).SetParents":   true,
	"repro/internal/trace.(*Recorder).SetStages":    true,
	"repro/internal/trace.(*Recorder).Finish":       true,
	"repro/internal/trace.(*Tracer).Event":          true,
	"repro/internal/trace.(*Tracer).FinishQuery":    true,
}

// CommitHookSetter is the function whose func-literal argument runs
// under the catalog write lock (commit order = invocation order). Its
// body is analyzed as if Catalog.mu were write-held on entry: catalog
// re-entry deadlocks, and I/O is flagged per NoIOWhileHeld.
const CommitHookSetter = "repro/internal/catalog.(*Catalog).SetCommitHook"

// CommitHookHeld is the lock the commit hook runs under.
const CommitHookHeld = "repro/internal/catalog.Catalog.mu"

// ListenerInterface and ListenerMethods name the catalog's update
// listener contract. Listener methods run *outside* the catalog lock
// (they may read freely) but inside the commit critical window, so
// re-entrant catalog *mutation* from one would interleave a commit
// inside a commit.
const ListenerInterface = "repro/internal/catalog.UpdateListener"

var ListenerMethods = map[string]bool{
	"OnUpdate": true,
}

// CatalogMutators are the catalog methods a listener must not call:
// every DDL/DML entry point of the real catalog, plus the
// Catalog-level Drop/Append/Delete spellings the lockorder test
// fixture declares.
var CatalogMutators = map[string]bool{
	"repro/internal/catalog.(*Catalog).CreateTable":    true,
	"repro/internal/catalog.(*Catalog).DropTable":      true,
	"repro/internal/catalog.(*Table).Append":           true,
	"repro/internal/catalog.(*Table).AppendColumns":    true,
	"repro/internal/catalog.(*Table).Delete":           true,
	"repro/internal/catalog.(*Table).DefineKeyIndex":   true,
	"repro/internal/catalog.(*Table).DefineJoinIndex":  true,
	"repro/internal/catalog.(*Catalog).AddListener":    true,
	"repro/internal/catalog.(*Catalog).RemoveListener": true,
	"repro/internal/catalog.(*Catalog).SetCommitHook":  true,
	"repro/internal/catalog.(*Catalog).ImportTable":    true,
	// lockorder/testdata/catalog
	"repro/internal/catalog.(*Catalog).Drop":   true,
	"repro/internal/catalog.(*Catalog).Append": true,
	"repro/internal/catalog.(*Catalog).Delete": true,
}

// RequiresWriterLock lists the Pool methods whose doc contract says
// "caller holds the recycler writer lock": they touch the entries map
// and the subsumption indexes, which only the writer lock
// keeps consistent. Len/Bytes/All/Dump/TypeBreakdown/ReusedStats are
// included — they iterate or read state mutated under the writer
// lock, so an unlocked call races structural changes. pushLeaf /
// dropLeaf / popLeaf are the leaf frontier's mutators: the heap and
// the entries' heapPos/heapTick fields are plain data under the lock.
var RequiresWriterLock = map[string]bool{
	"repro/internal/recycler.(*Pool).Get":             true,
	"repro/internal/recycler.(*Pool).Add":             true,
	"repro/internal/recycler.(*Pool).Remove":          true,
	"repro/internal/recycler.(*Pool).pushLeaf":        true,
	"repro/internal/recycler.(*Pool).dropLeaf":        true,
	"repro/internal/recycler.(*Pool).popLeaf":         true,
	"repro/internal/recycler.(*Pool).addTable":        true,
	"repro/internal/recycler.(*Pool).SelectSupersets": true,
	"repro/internal/recycler.(*Pool).SelectOverlaps":  true,
	"repro/internal/recycler.(*Pool).LikeCandidates":  true,
	"repro/internal/recycler.(*Pool).SemijoinOver":    true,
	"repro/internal/recycler.(*Pool).All":             true,
	"repro/internal/recycler.(*Pool).Len":             true,
	"repro/internal/recycler.(*Pool).Bytes":           true,
	"repro/internal/recycler.(*Pool).Dump":            true,
	"repro/internal/recycler.(*Pool).TypeBreakdown":   true,
	"repro/internal/recycler.(*Pool).ReusedStats":     true,
}

// WriterLockRequired is the lock RequiresWriterLock refers to.
const WriterLockRequired = "repro/internal/recycler.Recycler.mu"

// WriterContextFuncs are functions whose own doc contract is "caller
// holds the writer lock": their bodies are analyzed as if Recycler.mu
// were held on entry, and calls to them from a context that neither
// holds the lock nor is itself listed here are flagged. Pool methods
// from RequiresWriterLock are implicitly writer-context.
var WriterContextFuncs = map[string]bool{
	"repro/internal/recycler.(*Recycler).exitLocked":       true,
	"repro/internal/recycler.(*Recycler).imageLocked":      true,
	"repro/internal/recycler.(*Recycler).applyCommit":      true,
	"repro/internal/recycler.(*commitWalk).parent":         true,
	"repro/internal/recycler.(*commitWalk).rowsetParent":   true,
	"repro/internal/recycler.(*commitWalk).base":           true,
	"repro/internal/recycler.(*commitWalk).filter":         true,
	"repro/internal/recycler.(*commitWalk).project":        true,
	"repro/internal/recycler.(*commitWalk).splitAppend":    true,
	"repro/internal/recycler.(*commitWalk).agg":            true,
	"repro/internal/recycler.(*commitWalk).view":           true,
	"repro/internal/recycler.(*commitWalk).join":           true,
	"repro/internal/recycler.(*commitWalk).refresh":        true,
	"repro/internal/recycler.(*Recycler).appliedLocked":    true,
	"repro/internal/recycler.(*tableList).remove":          true,
	"repro/internal/recycler.(*Recycler).stampsFor":        true,
	"repro/internal/recycler.(*Recycler).buildEntry":       true,
	"repro/internal/recycler.(*Recycler).refreshResult":    true,
	"repro/internal/recycler.(*Recycler).invalidate":       true,
	"repro/internal/recycler.(*Recycler).cleanCache":       true,
	"repro/internal/recycler.(*Recycler).pickVictims":      true,
	"repro/internal/recycler.(*Recycler).pickLRU":          true,
	"repro/internal/recycler.(*Recycler).pickVictimsMem":   true,
	"repro/internal/recycler.(*Recycler).evict":            true,
	"repro/internal/recycler.(*Recycler).smallestSuperset": true,
	"repro/internal/recycler.(*Recycler).overlapSnaps":     true,
	"repro/internal/recycler.(*Recycler).smallestSemijoin": true,
}

// ---------------------------------------------------------------------
// atomicfield: the atomic-access discipline.
// ---------------------------------------------------------------------

// AtomicFields lists every field the concurrency design requires to
// be a typed sync/atomic value (atomic.Int64 & friends). The analyzer
// verifies the declaration site still carries an atomic type — a
// refactor quietly turning one back into a plain int64 is exactly the
// regression this table exists to catch.
var AtomicFields = map[string]bool{
	// repro (engine)
	"repro.Engine.queryID":   true,
	"repro.Engine.errors":    true,
	"repro.stmtCache.hits":   true,
	"repro.stmtCache.misses": true,
	// pool entries — the lock-free hit path mutates these concurrently
	"repro/internal/recycler.Entry.SavedTotal":  true,
	"repro/internal/recycler.Entry.LastUseTick": true,
	"repro/internal/recycler.Entry.ReuseCount":  true,
	"repro/internal/recycler.Entry.GlobalReuse": true,
	"repro/internal/recycler.Entry.valid":       true,
	"repro/internal/recycler.Entry.pinnedQuery": true,
	// a table's applied version — the commit walk stores it, the hit
	// path compares it
	"repro/internal/recycler.tableList.applied": true,
	// pool + recycler telemetry
	"repro/internal/recycler.Pool.tick":                 true,
	"repro/internal/recycler.Pool.reuses":               true,
	"repro/internal/recycler.Pool.shardWaits":           true,
	"repro/internal/recycler.Pool.shardWaitNs":          true,
	"repro/internal/recycler.Recycler.writerWaits":      true,
	"repro/internal/recycler.Recycler.writerWaitNs":     true,
	"repro/internal/recycler.Recycler.spilled":          true,
	"repro/internal/recycler.Recycler.prewarmed":        true,
	"repro/internal/recycler.Recycler.maintained":       true,
	"repro/internal/recycler.Recycler.reached":          true,
	"repro/internal/recycler.Recycler.maintainFallback": true,
	"repro/internal/recycler.Recycler.maintainNs":       true,
	"repro/internal/recycler.Recycler.deltaRows":        true,
	// catalog — a table's version, published by a commit and read with
	// no lock, and a tombstone list's caches, filled by the first bind
	// under the shared lock and extended by appends
	"repro/internal/catalog.Table.cur": true,
	"repro/internal/catalog.cache.p":   true,
	// optimizer statistics — bumped from concurrent compilations
	"repro/internal/opt.Stats.CSEMerged": true,
	"repro/internal/opt.Stats.Commuted":  true,
	// server counters
	"repro/internal/server.Server.queries":  true,
	"repro/internal/server.Server.execs":    true,
	"repro/internal/server.Server.errorsN":  true,
	"repro/internal/server.Server.rejected": true,
	"repro/internal/server.Server.active":   true,
	// store + mal
	"repro/internal/store.Store.walErr":  true,
	"repro/internal/mal.Template.layout": true,
}

// MutexGuardedFields lists plain fields whose consistency comes from
// a mutex, not from atomics. Touching one with sync/atomic free
// functions mixes disciplines: the atomic op orders nothing for the
// mutex-guarded readers and hides the race from -race.
var MutexGuardedFields = map[string]string{ // field -> guarding lock, for the message
	"repro/internal/catalog.Catalog.commitSeq": "catalog.Catalog.mu",
	"repro/internal/recycler.Pool.Admitted":    "recycler writer lock",
	"repro/internal/recycler.Pool.Evicted":     "recycler writer lock",
	"repro/internal/recycler.Pool.Invalidated": "recycler writer lock",
	"repro/internal/recycler.Pool.totalBytes":  "recycler writer lock",
}

// ---------------------------------------------------------------------
// singlesig: the single-signature identity invariant (PR 5).
// ---------------------------------------------------------------------

// SinglesigAllowedPkgs are packages allowed to derive identity
// strings: internal/plan is the identity implementation.
var SinglesigAllowedPkgs = map[string]bool{
	"repro/internal/plan": true,
}

// SinglesigAllowedFuncs are the sanctioned identity derivations
// outside internal/plan: mal.Instr.Name is the op spelling and
// StaticSig the compile-time identity CSE keys on.
// Their *results* may be used as keys directly; combining them into
// new strings is what the analyzer forbids.
var SinglesigAllowedFuncs = map[string]bool{
	"repro/internal/mal.(*Instr).Name":      true,
	"repro/internal/mal.(*Instr).StaticSig": true,
}

// IdentitySources name the functions and fields whose string (for
// AppendKey, byte) results are identity-bearing: deriving a *new*
// string from one (fmt.Sprintf, concatenation) and using it as a map
// key is an ad-hoc identity.
var IdentitySourceFuncs = map[string]bool{
	"repro/internal/mal.(*Instr).Name":      true,
	"repro/internal/mal.(*Instr).StaticSig": true,
	"repro/internal/plan.RenderInstr":       true,
	"repro/internal/plan.AppendKey":         true,
}

var IdentitySourceFields = map[string]bool{
	"repro/internal/mal.Instr.Module":      true,
	"repro/internal/mal.Instr.Op":          true,
	"repro/internal/recycler.Entry.Sig":    true,
	"repro/internal/recycler.Entry.OpName": true,
}
