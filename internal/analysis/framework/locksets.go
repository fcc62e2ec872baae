// Lock sets: a bottom-up interprocedural engine that propagates held-lock
// sets over the call graph and builds the global lock-acquisition-order
// graph. The lockorder analyzer consumes it to convict potential deadlocks
// (cycles and inconsistent A→B/B→A acquisition pairs) and violations of the
// //vet:lockrank-declared global order, and to enforce the critical-path
// contract: flight-critical (//vet:hotpath-rooted) code must never acquire
// a lock that tenant-reachable code can also hold.
//
// Lock identities are canonical "pkgpath.OwnerType.field" strings — the
// same rendering PR 6's effect engine uses for its sanctioned-lock check —
// plus "pkgpath.var" for package-level mutexes. Locks whose receiver the
// engine cannot name (local mutex variables, mutexes reached through
// function results) have no global identity and are skipped: a lock the
// engine cannot name cannot participate in a cross-function order anyway
// without first being nameable at both sites. Function values and
// reflection are unresolved, as everywhere in the framework (see DESIGN.md
// for the honest-limits list).
//
// The intra-function walk is a may-hold approximation:
//
//   - mu.Lock()/mu.RLock() add the lock to the held set; Unlock/RUnlock
//     remove it. defer mu.Unlock() keeps the lock held to the end of the
//     walk (the lock is genuinely held for the remainder of the body).
//   - Branches (if/for/switch/select) are walked with a copy of the entry
//     set and joined by UNION: a lock held on any arm is treated as held
//     after the merge. Over-approximating "held" can only add order edges,
//     never hide one.
//   - mu.TryLock() cannot block, so no edge points INTO a try-acquired
//     lock; but a successful TryLock is held afterwards, so edges OUT of
//     it are real. In `if mu.TryLock() { ... }` the lock is held in the
//     then-branch only; a try-lock in any other position is conservatively
//     held from that point on.
//   - go-statement bodies run concurrently: they are walked with an EMPTY
//     held set (their acquisitions attributed to the enclosing declaration,
//     as the call graph does). Immediately-invoked func literals inherit
//     the current held set; other func literals are walked with an empty
//     set — when they actually run is unknown, and the framework defaults
//     to optimism at unknowns.
//
// Interprocedural propagation is the usual fixpoint: AcquiresTotal(f) =
// local acquisitions ∪ AcquiresTotal of every resolved callee, so a call
// made while holding A yields an edge A→B for every B the callee may
// (transitively, blocking-ly) acquire. Recursion terminates because the
// domain (the finite set of named locks) is monotone — mutual recursion
// just converges in more sweeps.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// LockID is a canonical lock identity: "pkgpath.OwnerType.field" for
// struct-field mutexes, "pkgpath.var" for package-level ones.
type LockID string

// LockAcq is one local acquisition site.
type LockAcq struct {
	Pos  token.Pos
	Lock LockID
	// Held is the may-held set at the acquisition, in first-acquired order,
	// not including Lock itself.
	Held []LockID
	// Try marks TryLock/TryRLock: the site cannot block, so it receives no
	// incoming order edge, but the lock is held afterwards.
	Try bool
	// Read marks RLock/TryRLock.
	Read bool
}

// LockTrace records where a lock in a function's transitive acquire set is
// actually taken, for witness rendering.
type LockTrace struct {
	Fn  *types.Func
	Pos token.Pos
	// Try is true only while every known acquisition of the lock in the
	// subtree is a try-acquisition (which cannot block).
	Try bool
}

// lockCall is one resolved call edge annotated with the held set at the
// call site.
type lockCall struct {
	pos    token.Pos
	callee *types.Func
	held   []LockID
}

// LockFuncInfo is one function's lock summary.
type LockFuncInfo struct {
	Fn *types.Func
	// Acqs are the local acquisition sites in source order.
	Acqs []LockAcq
	// AcquiresTotal maps every lock this function may (transitively)
	// acquire to a trace of one acquisition site.
	AcquiresTotal map[LockID]LockTrace

	calls []lockCall
}

// LockEdge is one edge of the global acquisition-order graph: To is
// acquired (at Pos, inside Fn) while From is held. When the acquisition is
// transitive, Via names the direct callee and AcqFn/AcqPos the function and
// site that actually take To; for direct acquisitions Via is nil and
// AcqFn == Fn.
type LockEdge struct {
	From, To LockID
	Fn       *types.Func
	Pos      token.Pos
	Via      *types.Func
	AcqFn    *types.Func
	AcqPos   token.Pos
}

// LockRank is one //vet:lockrank declaration: the sanctioned global
// acquisition order is ascending rank.
type LockRank struct {
	Rank int
	Pos  token.Pos
}

// LockWorld is the result of one lock-set engine run.
type LockWorld struct {
	infos map[*types.Func]*LockFuncInfo
	// Edges is the deduplicated acquisition-order graph in deterministic
	// (declaration, then source) order: one edge per (From, To) pair, first
	// witness kept.
	Edges []*LockEdge
	// Ranks are the //vet:lockrank declarations found in the Program.
	Ranks map[LockID]LockRank
	// BadRankDirectives are malformed or conflicting //vet:lockrank
	// comments (Detail holds the error).
	BadRankDirectives []EffectSite
}

// Info returns fn's lock summary, or nil for functions not declared in the
// Program.
func (w *LockWorld) Info(fn *types.Func) *LockFuncInfo { return w.infos[fn] }

// Edge returns the recorded edge From→To, or nil.
func (w *LockWorld) Edge(from, to LockID) *LockEdge {
	for _, e := range w.Edges {
		if e.From == from && e.To == to {
			return e
		}
	}
	return nil
}

// lockSetsMemoKey is the Program memo key for the shared engine run.
const lockSetsMemoKey = "framework.locksets"

// LockSets computes (once, memoized) the Program's lock-set world.
func (p *Program) LockSets() *LockWorld {
	return p.Memo(lockSetsMemoKey, func() any { return ComputeLockSets(p) }).(*LockWorld)
}

// ComputeLockSets runs the lock-set engine over the Program.
func ComputeLockSets(p *Program) *LockWorld {
	w := &LockWorld{
		infos: make(map[*types.Func]*LockFuncInfo),
		Ranks: make(map[LockID]LockRank),
	}
	w.collectRanks(p)
	g := p.CallGraph()

	for _, src := range p.Funcs() {
		lw := &lockWalker{
			prog: p,
			src:  src,
			info: &LockFuncInfo{Fn: src.Fn, AcquiresTotal: make(map[LockID]LockTrace)},
		}
		lw.indexCallees(g)
		lw.walkBlock(src.Decl.Body, nil)
		for _, a := range lw.info.Acqs {
			prev, seen := lw.info.AcquiresTotal[a.Lock]
			// A blocking acquisition beats a try-only trace.
			if !seen || (prev.Try && !a.Try) {
				lw.info.AcquiresTotal[a.Lock] = LockTrace{Fn: src.Fn, Pos: a.Pos, Try: a.Try}
			}
		}
		w.infos[src.Fn] = lw.info
	}

	// Bottom-up fixpoint over the finite lock domain: monotone, so mutual
	// recursion converges rather than diverging.
	for changed := true; changed; {
		changed = false
		for _, src := range p.Funcs() {
			info := w.infos[src.Fn]
			for _, c := range info.calls {
				ci := w.infos[c.callee]
				if ci == nil {
					continue
				}
				for lock, tr := range ci.AcquiresTotal {
					prev, seen := info.AcquiresTotal[lock]
					if !seen || (prev.Try && !tr.Try) {
						info.AcquiresTotal[lock] = tr
						changed = true
					}
				}
			}
		}
	}

	w.buildEdges(p)
	return w
}

// buildEdges assembles the deduplicated acquisition-order graph: direct
// edges from local acquisition sites, transitive edges from calls made with
// locks held. Self-edges are locksafe's double-lock jurisdiction and are
// skipped here.
func (w *LockWorld) buildEdges(p *Program) {
	seen := make(map[[2]LockID]bool)
	add := func(e *LockEdge) {
		if e.From == e.To {
			return
		}
		key := [2]LockID{e.From, e.To}
		if seen[key] {
			return
		}
		seen[key] = true
		w.Edges = append(w.Edges, e)
	}
	for _, src := range p.Funcs() {
		info := w.infos[src.Fn]
		for _, a := range info.Acqs {
			if a.Try {
				continue // cannot block: no incoming edge
			}
			for _, h := range a.Held {
				add(&LockEdge{From: h, To: a.Lock, Fn: src.Fn, Pos: a.Pos, AcqFn: src.Fn, AcqPos: a.Pos})
			}
		}
		for _, c := range info.calls {
			if len(c.held) == 0 {
				continue
			}
			ci := w.infos[c.callee]
			if ci == nil {
				continue
			}
			// Deterministic lock order within the callee's acquire set.
			locks := make([]string, 0, len(ci.AcquiresTotal))
			for lock := range ci.AcquiresTotal {
				locks = append(locks, string(lock))
			}
			sort.Strings(locks)
			for _, ls := range locks {
				lock := LockID(ls)
				tr := ci.AcquiresTotal[lock]
				if tr.Try {
					continue
				}
				for _, h := range c.held {
					add(&LockEdge{From: h, To: lock, Fn: src.Fn, Pos: c.pos, Via: c.callee, AcqFn: tr.Fn, AcqPos: tr.Pos})
				}
			}
		}
	}
}

// collectRanks scans every file's comments for //vet:lockrank directives:
//
//	//vet:lockrank <rank> <lockID> [reason]
//
// The sanctioned global order is ascending rank; equal-ranked locks must
// never nest. Conflicting re-declarations are reported as bad directives.
func (w *LockWorld) collectRanks(p *Program) {
	for _, pkg := range p.Packages {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, "//vet:lockrank")
					if !ok {
						continue
					}
					fields := strings.Fields(rest)
					if len(fields) < 2 {
						w.BadRankDirectives = append(w.BadRankDirectives, EffectSite{
							Pos: c.Pos(), Detail: "malformed //vet:lockrank: want `//vet:lockrank <rank> <lock> [reason]`",
						})
						continue
					}
					rank, err := strconv.Atoi(fields[0])
					if err != nil {
						w.BadRankDirectives = append(w.BadRankDirectives, EffectSite{
							Pos: c.Pos(), Detail: fmt.Sprintf("malformed //vet:lockrank: bad rank %q", fields[0]),
						})
						continue
					}
					lock := LockID(fields[1])
					if prev, dup := w.Ranks[lock]; dup {
						if prev.Rank != rank {
							w.BadRankDirectives = append(w.BadRankDirectives, EffectSite{
								Pos: c.Pos(), Detail: fmt.Sprintf("conflicting //vet:lockrank for %s: %d here, %d earlier", lock, rank, prev.Rank),
							})
						}
						continue
					}
					w.Ranks[lock] = LockRank{Rank: rank, Pos: c.Pos()}
				}
			}
		}
	}
}

// lockWalker tracks the may-held set through one function body.
type lockWalker struct {
	prog    *Program
	src     *FuncSource
	info    *LockFuncInfo
	callees map[*ast.CallExpr][]*types.Func
}

// indexCallees groups the function's resolved call edges by call
// expression, canonicalized to in-Program declarations, with interface
// fan-out bounded as in the effect engine.
func (lw *lockWalker) indexCallees(g *CallGraph) {
	edges := g.CallsFrom(lw.src.Fn)
	fanOut := make(map[*ast.CallExpr]int)
	for _, e := range edges {
		if e.Interface {
			fanOut[e.Call]++
		}
	}
	lw.callees = make(map[*ast.CallExpr][]*types.Func)
	for _, e := range edges {
		if e.Interface && fanOut[e.Call] > DefaultMaxInterfaceFanOut {
			continue
		}
		if callee := lw.prog.CanonicalSource(e.Callee); callee != nil {
			lw.callees[e.Call] = append(lw.callees[e.Call], callee.Fn)
		}
	}
}

// held-set helpers: ordered slices treated as sets, union preserving
// first-seen order so witnesses render deterministically.

func heldHas(held []LockID, id LockID) bool {
	for _, h := range held {
		if h == id {
			return true
		}
	}
	return false
}

func heldAdd(held []LockID, id LockID) []LockID {
	if heldHas(held, id) {
		return held
	}
	return append(held[:len(held):len(held)], id)
}

func heldRemove(held []LockID, id LockID) []LockID {
	out := make([]LockID, 0, len(held))
	for _, h := range held {
		if h != id {
			out = append(out, h)
		}
	}
	return out
}

func heldUnion(a, b []LockID) []LockID {
	out := a
	for _, h := range b {
		out = heldAdd(out, h)
	}
	return out
}

func heldClone(held []LockID) []LockID { return held[:len(held):len(held)] }

// walkBlock walks a statement list, threading the held set through.
func (lw *lockWalker) walkBlock(b *ast.BlockStmt, held []LockID) []LockID {
	if b == nil {
		return held
	}
	return lw.walkStmts(b.List, held)
}

func (lw *lockWalker) walkStmts(stmts []ast.Stmt, held []LockID) []LockID {
	for _, s := range stmts {
		held = lw.walkStmt(s, held)
	}
	return held
}

func (lw *lockWalker) walkStmt(s ast.Stmt, held []LockID) []LockID {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return lw.walkBlock(s, held)
	case *ast.ExprStmt:
		return lw.walkExpr(s.X, held, nil)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			held = lw.walkExpr(e, held, nil)
		}
		for _, e := range s.Lhs {
			held = lw.walkExpr(e, held, nil)
		}
		return held
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						held = lw.walkExpr(e, held, nil)
					}
				}
			}
		}
		return held
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			held = lw.walkExpr(e, held, nil)
		}
		return held
	case *ast.IncDecStmt:
		return lw.walkExpr(s.X, held, nil)
	case *ast.SendStmt:
		held = lw.walkExpr(s.Chan, held, nil)
		return lw.walkExpr(s.Value, held, nil)
	case *ast.LabeledStmt:
		return lw.walkStmt(s.Stmt, held)
	case *ast.IfStmt:
		if s.Init != nil {
			held = lw.walkStmt(s.Init, held)
		}
		// Try-locks acquired in the condition are held in the then-branch
		// only: `if mu.TryLock() { ... }`.
		var tries []LockID
		held = lw.walkExpr(s.Cond, held, &tries)
		thenEntry := heldClone(held)
		for _, id := range tries {
			thenEntry = heldAdd(thenEntry, id)
		}
		thenOut := lw.walkBlock(s.Body, thenEntry)
		elseOut := heldClone(held)
		if s.Else != nil {
			elseOut = lw.walkStmt(s.Else, heldClone(held))
		}
		return heldUnion(heldClone(thenOut), elseOut)
	case *ast.ForStmt:
		if s.Init != nil {
			held = lw.walkStmt(s.Init, held)
		}
		if s.Cond != nil {
			held = lw.walkExpr(s.Cond, held, nil)
		}
		bodyOut := lw.walkBlock(s.Body, heldClone(held))
		if s.Post != nil {
			bodyOut = lw.walkStmt(s.Post, bodyOut)
		}
		return heldUnion(heldClone(held), bodyOut)
	case *ast.RangeStmt:
		held = lw.walkExpr(s.X, held, nil)
		bodyOut := lw.walkBlock(s.Body, heldClone(held))
		return heldUnion(heldClone(held), bodyOut)
	case *ast.SwitchStmt:
		if s.Init != nil {
			held = lw.walkStmt(s.Init, held)
		}
		if s.Tag != nil {
			held = lw.walkExpr(s.Tag, held, nil)
		}
		return lw.walkClauses(s.Body, held)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			held = lw.walkStmt(s.Init, held)
		}
		held = lw.walkStmt(s.Assign, held)
		return lw.walkClauses(s.Body, held)
	case *ast.SelectStmt:
		out := heldClone(held)
		for _, cl := range s.Body.List {
			comm := cl.(*ast.CommClause)
			entry := heldClone(held)
			if comm.Comm != nil {
				entry = lw.walkStmt(comm.Comm, entry)
			}
			out = heldUnion(out, lw.walkStmts(comm.Body, entry))
		}
		return out
	case *ast.GoStmt:
		// Arguments evaluate in the spawning context; the spawned body runs
		// concurrently with an empty held set.
		for _, e := range s.Call.Args {
			held = lw.walkExpr(e, held, nil)
		}
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			lw.walkBlock(lit.Body, nil)
		} else {
			lw.walkCall(s.Call, nil, nil)
		}
		return held
	case *ast.DeferStmt:
		// defer mu.Unlock() keeps the lock held to the end of the body;
		// deferred closures run at an unknown point with an unknown held
		// set — skipped, like the effect engine's optimistic unknowns.
		return held
	}
	return held
}

func (lw *lockWalker) walkClauses(body *ast.BlockStmt, held []LockID) []LockID {
	out := heldClone(held)
	for _, cl := range body.List {
		cc := cl.(*ast.CaseClause)
		entry := heldClone(held)
		for _, e := range cc.List {
			entry = lw.walkExpr(e, entry, nil)
		}
		out = heldUnion(out, lw.walkStmts(cc.Body, entry))
	}
	return out
}

// walkExpr walks an expression, threading the held set; tries, when
// non-nil, collects try-acquired locks for the caller (the if-condition
// special case) instead of adding them to the flowing set.
func (lw *lockWalker) walkExpr(e ast.Expr, held []LockID, tries *[]LockID) []LockID {
	switch e := e.(type) {
	case *ast.CallExpr:
		held = lw.walkExpr(e.Fun, held, nil)
		for _, arg := range e.Args {
			held = lw.walkExpr(arg, held, nil)
		}
		if lit, ok := ast.Unparen(e.Fun).(*ast.FuncLit); ok {
			// Immediately-invoked literal: runs here, under the held set.
			return lw.walkBlock(lit.Body, held)
		}
		return lw.walkCall(e, held, tries)
	case *ast.FuncLit:
		// A literal not invoked here runs at an unknown time: walk with an
		// empty held set so its acquisitions still register.
		lw.walkBlock(e.Body, nil)
		return held
	case *ast.ParenExpr:
		return lw.walkExpr(e.X, held, tries)
	case *ast.UnaryExpr:
		return lw.walkExpr(e.X, held, tries)
	case *ast.BinaryExpr:
		held = lw.walkExpr(e.X, held, tries)
		return lw.walkExpr(e.Y, held, tries)
	case *ast.SelectorExpr:
		return lw.walkExpr(e.X, held, nil)
	case *ast.IndexExpr:
		held = lw.walkExpr(e.X, held, nil)
		return lw.walkExpr(e.Index, held, nil)
	case *ast.SliceExpr:
		held = lw.walkExpr(e.X, held, nil)
		for _, idx := range []ast.Expr{e.Low, e.High, e.Max} {
			if idx != nil {
				held = lw.walkExpr(idx, held, nil)
			}
		}
		return held
	case *ast.StarExpr:
		return lw.walkExpr(e.X, held, nil)
	case *ast.TypeAssertExpr:
		return lw.walkExpr(e.X, held, nil)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			held = lw.walkExpr(el, held, nil)
		}
		return held
	case *ast.KeyValueExpr:
		held = lw.walkExpr(e.Key, held, nil)
		return lw.walkExpr(e.Value, held, nil)
	}
	return held
}

// walkCall handles one (non-literal) call expression: lock operations
// mutate the held set, resolved calls record the held set for the
// interprocedural pass.
func (lw *lockWalker) walkCall(call *ast.CallExpr, held []LockID, tries *[]LockID) []LockID {
	if id, op, ok := lw.lockOp(call); ok {
		switch op {
		case "Lock", "RLock":
			acq := LockAcq{Pos: call.Pos(), Lock: id, Held: heldClone(held), Read: op == "RLock"}
			lw.info.Acqs = append(lw.info.Acqs, acq)
			return heldAdd(held, id)
		case "TryLock", "TryRLock":
			acq := LockAcq{Pos: call.Pos(), Lock: id, Held: heldClone(held), Try: true, Read: op == "TryRLock"}
			lw.info.Acqs = append(lw.info.Acqs, acq)
			if tries != nil {
				*tries = append(*tries, id)
				return held
			}
			return heldAdd(held, id)
		case "Unlock", "RUnlock":
			return heldRemove(held, id)
		}
		return held
	}
	for _, callee := range lw.callees[call] {
		lw.info.calls = append(lw.info.calls, lockCall{pos: call.Pos(), callee: callee, held: heldClone(held)})
	}
	return held
}

// lockOp reports whether call is a lock operation on a nameable sync.Mutex
// or sync.RWMutex, resolving the canonical LockID.
func (lw *lockWalker) lockOp(call *ast.CallExpr) (LockID, string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || len(call.Args) != 0 {
		return "", "", false
	}
	op := sel.Sel.Name
	switch op {
	case "Lock", "RLock", "TryLock", "TryRLock", "Unlock", "RUnlock":
	default:
		return "", "", false
	}
	info := lw.src.Pkg.Info
	tv, ok := info.Types[sel.X]
	if !ok || !isSyncLockType(tv.Type) {
		return "", "", false
	}
	id, ok := canonicalLockID(info, sel.X)
	if !ok {
		return "", "", false
	}
	return id, op, true
}

func isSyncLockType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// canonicalLockID names the mutex expression: "pkgpath.OwnerType.field"
// for a struct-field selector (v.mu), "pkgpath.var" for a package-level
// variable. Anything else — a local mutex variable, a mutex returned from
// a call — has no global identity and reports !ok.
func canonicalLockID(info *types.Info, e ast.Expr) (LockID, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		// otherpkg.Mu: a qualified reference to another package's exported
		// mutex (package idents carry no type entry, so this comes first).
		if v, ok := info.Uses[e.Sel].(*types.Var); ok && v.Pkg() != nil &&
			v.Parent() == v.Pkg().Scope() {
			return LockID(v.Pkg().Path() + "." + v.Name()), true
		}
		// v.mu: owner type (pointer-stripped) + field name.
		tv, ok := info.Types[e.X]
		if !ok {
			return "", false
		}
		t := tv.Type
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if _, isNamed := t.(*types.Named); !isNamed {
			return "", false
		}
		return LockID(types.TypeString(t, nil) + "." + e.Sel.Name), true
	case *ast.Ident:
		if v, ok := info.Uses[e].(*types.Var); ok && v.Pkg() != nil &&
			v.Parent() == v.Pkg().Scope() {
			return LockID(v.Pkg().Path() + "." + v.Name()), true
		}
	}
	return "", false
}

// SanctionedHotPathLocks is the reviewed list of owner-lock idioms a hot
// path may block on — short, leaf-ordered critical sections documented in
// DESIGN.md "Fleet scaling & hot-path concurrency". The hotpath analyzer
// exempts them from its no-blocking rule and lockorder's critical-path
// rule exempts them from the tenant-overlap ban.
var SanctionedHotPathLocks = map[LockID]bool{
	"androne/internal/mavproxy.VFC.mu":        true, // VFC serial endpoint
	"androne/internal/telemetry.Recorder.gmu": true, // global ring
	"androne/internal/telemetry.Recorder.rmu": true, // black-box archive
	"androne/internal/telemetry.stripe.mu":    true, // per-drone ring stripes
}

// tenantMemoKey is the Program memo key for the tenant-reachable closure.
const tenantMemoKey = "framework.tenant"

// TenantReachable computes (once, memoized) the set of functions reachable
// from tenant entry points — binder transaction handlers (functions
// assignable to the binder Handler func type) and portal HTTP handlers
// (func(http.ResponseWriter, *http.Request)) — mapped to the entry that
// reaches them, breadth-first in declaration order so the attribution is
// deterministic. Interface edges are followed with the usual fan-out
// bound; function values and reflection stay unresolved.
func (p *Program) TenantReachable() map[*types.Func]*types.Func {
	return p.Memo(tenantMemoKey, func() any { return computeTenantReachable(p) }).(map[*types.Func]*types.Func)
}

func computeTenantReachable(p *Program) map[*types.Func]*types.Func {
	g := p.CallGraph()
	handlerSig := binderHandlerSignature(p)
	reached := make(map[*types.Func]*types.Func)
	for _, src := range p.Funcs() {
		if !isTenantEntry(src.Fn, handlerSig) {
			continue
		}
		root := src.Fn
		queue := []*types.Func{root}
		for len(queue) > 0 {
			fn := queue[0]
			queue = queue[1:]
			if _, seen := reached[fn]; seen {
				continue
			}
			reached[fn] = root
			edges := g.CallsFrom(fn)
			fanOut := make(map[*ast.CallExpr]int)
			for _, e := range edges {
				if e.Interface {
					fanOut[e.Call]++
				}
			}
			for _, e := range edges {
				if e.Interface && fanOut[e.Call] > DefaultMaxInterfaceFanOut {
					continue
				}
				if callee := p.CanonicalSource(e.Callee); callee != nil {
					queue = append(queue, callee.Fn)
				}
			}
		}
	}
	return reached
}

// binderHandlerSignature finds the binder package's Handler func type in
// the Program, or nil (fixture worlds without a binder package).
func binderHandlerSignature(p *Program) *types.Signature {
	for _, pkg := range p.Packages {
		if !strings.HasSuffix(pkg.Path, "internal/binder") {
			continue
		}
		if tn, ok := pkg.Pkg.Scope().Lookup("Handler").(*types.TypeName); ok {
			if sig, ok := tn.Type().Underlying().(*types.Signature); ok {
				return sig
			}
		}
	}
	return nil
}

// isTenantEntry reports whether fn is a tenant entry point: a binder
// transaction handler or an HTTP handler.
func isTenantEntry(fn *types.Func, handlerSig *types.Signature) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	if handlerSig != nil && types.Identical(sig, handlerSig) {
		return true
	}
	return isHTTPHandlerSig(sig)
}

// isHTTPHandlerSig matches func(net/http.ResponseWriter, *net/http.Request).
func isHTTPHandlerSig(sig *types.Signature) bool {
	if sig.Params().Len() != 2 || sig.Results().Len() != 0 {
		return false
	}
	isHTTP := func(t types.Type, name string) bool {
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok {
			return false
		}
		obj := named.Obj()
		return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == "net/http"
	}
	return isHTTP(sig.Params().At(0).Type(), "ResponseWriter") &&
		isHTTP(sig.Params().At(1).Type(), "Request")
}
