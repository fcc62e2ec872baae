// Lock sets: a bottom-up interprocedural engine that propagates held-lock
// sets over the call graph and builds the global lock-acquisition-order
// graph, and the one walk that tracks locks through a function body. The
// walk keeps two views of the same lock operations:
//
//   - the may-hold view over canonically named locks, which feeds the
//     order graph. The lockorder analyzer consumes it to convict potential
//     deadlocks (cycles and inconsistent A→B/B→A acquisition pairs) and
//     violations of the //vet:lockrank-declared global order, and to
//     enforce the critical-path contract: flight-critical
//     (//vet:hotpath-rooted) code must never acquire a lock that
//     tenant-reachable code can also hold;
//   - the must-hold view over the function's own lock instances, which
//     records the discipline sites (LockSite) the locksafe analyzer
//     reports: a lock still held at a return, a re-lock, arms or loop
//     bodies that disagree on lock state, and channel operations and
//     calls made while a lock is held.
//
// Lock identities in the order view are canonical "pkgpath.OwnerType.field"
// strings — the rendering the effect engine's sanctioned-lock check uses —
// plus "pkgpath.var" for package-level mutexes. Locks whose receiver the
// engine cannot name (local mutex variables, mutexes reached through
// function results) have no global identity and stay out of the graph: a
// lock the engine cannot name cannot participate in a cross-function order
// anyway without first being nameable at both sites. The discipline view
// keys a lock by its instance as written ("a.mu", "b.mu", a local "mu"),
// so it checks unnameable locks too and never mistakes two values of one
// type for a double lock. Function values and reflection are unresolved,
// as everywhere in the framework (see DESIGN.md for the honest-limits
// list).
//
// The walk:
//
//   - mu.Lock()/mu.RLock() acquire; Unlock/RUnlock release. A deferred
//     release, direct or inside a deferred closure, leaves the lock held
//     to the end of the body (it genuinely is) and marks the release
//     pending, so the discipline view does not ask for another. An
//     xxxLocked helper that releases its caller's lock drives the
//     instance's depth negative, which is not an error.
//   - Branches (if/switch/select) walk each arm from the entry state. The
//     order view joins them by UNION: a lock held on any arm is held after
//     the merge, and over-approximating "held" can only add order edges,
//     never hide one. The discipline view drops arms that return, panic,
//     break or continue, requires the rest to agree (an arm holding a lock
//     under a deferred release agrees with one that never took it) and
//     continues from the first. A loop body is walked once; the
//     discipline view requires it to leave the state it found.
//   - mu.TryLock() cannot block, so no edge points INTO a try-acquired
//     lock; but a successful TryLock is held afterwards, so edges OUT of
//     it are real. In `if mu.TryLock() { ... }` the lock is held in the
//     then-branch only, in `if !mu.TryLock() { ... }` in the else-branch
//     and after; a try-lock in any other position is conservatively held
//     from that point on in the order view and not at all in the
//     discipline view.
//   - go-statement bodies run concurrently: they are walked with an EMPTY
//     held set (their acquisitions attributed to the enclosing declaration,
//     as the call graph does). Immediately-invoked func literals inherit
//     the current held set; other func literals are walked with an empty
//     set — when they actually run is unknown, and the framework defaults
//     to optimism at unknowns. Every literal body is its own discipline
//     frame, starting with nothing held.
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
	// Discipline are the function's must-hold discipline sites in walk
	// order (see LockSiteKind).
	Discipline []LockSite

	calls []lockCall
}

// LockSiteKind classifies a discipline site: a point where the must-hold
// view of the function's own lock instances breaks a rule, or where an
// operation happens while that view holds a lock.
type LockSiteKind int

const (
	// SiteHeldAtExit is a return, or the end of the body, with a lock
	// held and no deferred release: one site per such lock.
	SiteHeldAtExit LockSiteKind = iota
	// SiteRelock is a Lock of an instance the function already holds.
	SiteRelock
	// SiteIfDiffers and SiteSwitchDiffers are an if, or a switch, type
	// switch or select, whose arms still running afterwards disagree on
	// lock state. Arms that return, panic or branch away drop out.
	SiteIfDiffers
	SiteSwitchDiffers
	// SiteLoopDiffers is a loop whose body leaves lock state changed.
	SiteLoopDiffers
	// SiteSend, SiteRecv and SiteSelect are channel operations made while
	// a lock is held.
	SiteSend
	SiteRecv
	SiteSelect
	// SiteCall is any call made while a lock is held; Call is set and the
	// consumer decides which calls matter.
	SiteCall
)

// LockSite is one discipline site. For every kind but the three Differs
// kinds, Lock names the held lock (the first still held, in acquisition
// order) as written at the call, with " (read lock)" for the RLock side,
// and LockPos is its outstanding acquisition.
type LockSite struct {
	Kind    LockSiteKind
	Pos     token.Pos
	Lock    string
	LockPos token.Pos
	Call    *ast.CallExpr
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
		lw.walkBody(src.Decl.Body, nil)
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

// lockWalker tracks both views through one function body.
type lockWalker struct {
	prog    *Program
	src     *FuncSource
	info    *LockFuncInfo
	callees map[*ast.CallExpr][]*types.Func
	// mute counts enclosing select comm clauses: the select itself is the
	// reported site, so the channel operation in its comm is not.
	mute int
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

// lockFlow is the state threaded through a body: the two views of the
// same lock operations. Both slices are copy-on-write, so arms of a
// branch share their entry flow safely.
type lockFlow struct {
	// held is the may-hold view over named locks, for the order graph.
	held []LockID
	// own is the must-hold view over the function's lock instances, for
	// discipline, in first-acquired order.
	own []ownLock
	// dead marks a path already left by return, panic, or a branch
	// statement: it records no discipline site and drops out of merges.
	dead bool
}

// ownLock is one lock instance's must-hold state.
type ownLock struct {
	key  string // the receiver as written: "s.mu", "mu"
	read bool   // the RLock side of an RWMutex, tracked independently
	// depth is the net number of acquisitions; negative when the function
	// released a lock its caller holds (the xxxLocked convention).
	depth    int
	deferred bool      // a deferred release is pending
	pos      token.Pos // the outstanding acquisition
}

func (o ownLock) name() string {
	if o.read {
		return o.key + " (read lock)"
	}
	return o.key
}

// lockRef is a lock operation's target: its instance for the discipline
// view and, when nameable, its canonical LockID for the order view.
type lockRef struct {
	id   LockID // "" when the lock has no global identity
	key  string
	read bool
}

// tryLocks collects the try-acquisitions of an if condition by the arm
// in which they are held: then for `if mu.TryLock()`, else for
// `if !mu.TryLock()`.
type tryLocks struct{ then, els []lockRef }

// update returns f with ref's instance state changed by fn.
func (f lockFlow) update(ref lockRef, fn func(*ownLock)) lockFlow {
	own := make([]ownLock, len(f.own), len(f.own)+1)
	copy(own, f.own)
	i := 0
	for i < len(own) && (own[i].key != ref.key || own[i].read != ref.read) {
		i++
	}
	if i == len(own) {
		own = append(own, ownLock{key: ref.key, read: ref.read})
	}
	fn(&own[i])
	f.own = own
	return f
}

// lookup returns ref's instance state (zero if untracked).
func (f lockFlow) lookup(ref lockRef) ownLock {
	for _, o := range f.own {
		if o.key == ref.key && o.read == ref.read {
			return o
		}
	}
	return ownLock{}
}

// acquire marks ref held in both views.
func (f lockFlow) acquire(ref lockRef, pos token.Pos) lockFlow {
	if ref.id != "" {
		f.held = heldAdd(f.held, ref.id)
	}
	return f.update(ref, func(o *ownLock) {
		if o.depth <= 0 {
			o.pos = pos
		}
		o.depth++
	})
}

// sameOwn reports whether two must-hold states agree. Instances at net
// depth zero with no pending release count as absent and positions do not
// matter. With settled, instances held under a deferred release count as
// absent too: an arm that locks and defers the unlock
// (`if mu.TryLock() { defer mu.Unlock(); … }`) is balanced at function
// exit, which is all a branch merge needs; a loop body that does so still
// re-locks on the next iteration.
func sameOwn(a, b []ownLock, settled bool) bool {
	live := func(o ownLock) bool {
		if o.depth == 0 && !o.deferred {
			return false
		}
		return !settled || o.depth <= 0 || !o.deferred
	}
	n := 0
	for _, x := range a {
		if !live(x) {
			continue
		}
		n++
		match := false
		for _, y := range b {
			if y.key == x.key && y.read == x.read {
				match = live(y) && y.depth == x.depth && y.deferred == x.deferred
				break
			}
		}
		if !match {
			return false
		}
	}
	for _, y := range b {
		if live(y) {
			n--
		}
	}
	return n == 0
}

// site records a discipline site unless the path is dead or muted.
func (lw *lockWalker) site(f lockFlow, s LockSite) {
	if f.dead || lw.mute > 0 {
		return
	}
	lw.info.Discipline = append(lw.info.Discipline, s)
}

// heldSite records an operation made while the function holds a lock,
// naming the first lock still held.
func (lw *lockWalker) heldSite(f lockFlow, kind LockSiteKind, pos token.Pos, call *ast.CallExpr) {
	for _, o := range f.own {
		if o.depth > 0 {
			lw.site(f, LockSite{Kind: kind, Pos: pos, Lock: o.name(), LockPos: o.pos, Call: call})
			return
		}
	}
}

// exit records every lock still held, with no deferred release, where
// the function returns.
func (lw *lockWalker) exit(f lockFlow, pos token.Pos) {
	for _, o := range f.own {
		if o.depth > 0 && !o.deferred {
			lw.site(f, LockSite{Kind: SiteHeldAtExit, Pos: pos, Lock: o.name(), LockPos: o.pos})
		}
	}
}

// join merges alternative arms. The order view takes the union of every
// arm; the discipline view takes the first arm still alive and records a
// kind site at pos when the live arms disagree.
func (lw *lockWalker) join(pos token.Pos, kind LockSiteKind, arms ...lockFlow) lockFlow {
	out := lockFlow{held: arms[0].held, dead: true}
	for _, a := range arms[1:] {
		out.held = heldUnion(out.held, a.held)
	}
	for _, a := range arms {
		if a.dead {
			continue
		}
		if out.dead {
			out.own, out.dead = a.own, false
		} else if !sameOwn(out.own, a.own, true) {
			lw.site(out, LockSite{Kind: kind, Pos: pos})
			break
		}
	}
	return out
}

// loop records a kind site at pos when a live body leaves the lock state
// it found. The loop's result is its entry state plus, for the order
// view, whatever the body may still hold.
func (lw *lockWalker) loop(entry, body lockFlow, pos token.Pos) lockFlow {
	if !body.dead && !sameOwn(entry.own, body.own, false) {
		lw.site(entry, LockSite{Kind: SiteLoopDiffers, Pos: pos})
	}
	entry.held = heldUnion(entry.held, body.held)
	return entry
}

// walkBody walks a function body from the given held set and records the
// locks still held if control falls off its end.
func (lw *lockWalker) walkBody(body *ast.BlockStmt, held []LockID) []LockID {
	f := lw.walkBlock(body, lockFlow{held: held})
	if !f.dead {
		lw.exit(f, body.Rbrace)
	}
	return f.held
}

// walkBlock walks a statement list, threading the flow through.
func (lw *lockWalker) walkBlock(b *ast.BlockStmt, f lockFlow) lockFlow {
	if b == nil {
		return f
	}
	return lw.walkStmts(b.List, f)
}

func (lw *lockWalker) walkStmts(stmts []ast.Stmt, f lockFlow) lockFlow {
	for _, s := range stmts {
		f = lw.walkStmt(s, f)
	}
	return f
}

func (lw *lockWalker) walkStmt(s ast.Stmt, f lockFlow) lockFlow {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return lw.walkBlock(s, f)
	case *ast.ExprStmt:
		f = lw.walkExpr(s.X, f, nil)
		if lw.isPanic(s.X) {
			f.dead = true
		}
		return f
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			f = lw.walkExpr(e, f, nil)
		}
		for _, e := range s.Lhs {
			f = lw.walkExpr(e, f, nil)
		}
		return f
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						f = lw.walkExpr(e, f, nil)
					}
				}
			}
		}
		return f
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			f = lw.walkExpr(e, f, nil)
		}
		lw.exit(f, s.Return)
		f.dead = true
		return f
	case *ast.BranchStmt:
		f.dead = true
		return f
	case *ast.IncDecStmt:
		return lw.walkExpr(s.X, f, nil)
	case *ast.SendStmt:
		f = lw.walkExpr(s.Chan, f, nil)
		f = lw.walkExpr(s.Value, f, nil)
		lw.heldSite(f, SiteSend, s.Arrow, nil)
		return f
	case *ast.LabeledStmt:
		return lw.walkStmt(s.Stmt, f)
	case *ast.IfStmt:
		if s.Init != nil {
			f = lw.walkStmt(s.Init, f)
		}
		var tries tryLocks
		f = lw.walkExpr(s.Cond, f, &tries)
		then, els := f, f
		for _, ref := range tries.then {
			then = then.acquire(ref, s.Cond.Pos())
		}
		for _, ref := range tries.els {
			els = els.acquire(ref, s.Cond.Pos())
		}
		then = lw.walkBlock(s.Body, then)
		if s.Else != nil {
			els = lw.walkStmt(s.Else, els)
		}
		return lw.join(s.If, SiteIfDiffers, then, els)
	case *ast.ForStmt:
		if s.Init != nil {
			f = lw.walkStmt(s.Init, f)
		}
		if s.Cond != nil {
			f = lw.walkExpr(s.Cond, f, nil)
		}
		body := lw.walkBlock(s.Body, f)
		if s.Post != nil {
			body = lw.walkStmt(s.Post, body)
		}
		return lw.loop(f, body, s.For)
	case *ast.RangeStmt:
		f = lw.walkExpr(s.X, f, nil)
		return lw.loop(f, lw.walkBlock(s.Body, f), s.For)
	case *ast.SwitchStmt:
		if s.Init != nil {
			f = lw.walkStmt(s.Init, f)
		}
		if s.Tag != nil {
			f = lw.walkExpr(s.Tag, f, nil)
		}
		return lw.walkClauses(s.Body, f, s.Switch)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			f = lw.walkStmt(s.Init, f)
		}
		f = lw.walkStmt(s.Assign, f)
		return lw.walkClauses(s.Body, f, s.Switch)
	case *ast.SelectStmt:
		lw.heldSite(f, SiteSelect, s.Select, nil)
		arms := []lockFlow{f}
		for _, cl := range s.Body.List {
			comm := cl.(*ast.CommClause)
			entry := f
			if comm.Comm == nil {
				arms[0].dead = true // a default leaves no path past the select
			} else {
				lw.mute++
				entry = lw.walkStmt(comm.Comm, entry)
				lw.mute--
			}
			arms = append(arms, lw.walkStmts(comm.Body, entry))
		}
		return lw.join(s.Select, SiteSwitchDiffers, arms...)
	case *ast.GoStmt:
		// Arguments evaluate in the spawning context; the spawned body runs
		// concurrently with nothing held.
		for _, e := range s.Call.Args {
			f = lw.walkExpr(e, f, nil)
		}
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			lw.walkBody(lit.Body, nil)
		} else {
			lw.walkCall(s.Call, lockFlow{}, nil)
		}
		return f
	case *ast.DeferStmt:
		return lw.walkDefer(s, f)
	}
	return f
}

// walkDefer handles a defer statement. A deferred Unlock/RUnlock, direct
// or inside a deferred closure, marks the release pending: the lock stays
// held in both views to the end of the body. Other deferred calls
// evaluate their arguments now and run at an unknown point with an
// unknown held set, so their bodies are skipped, like the effect engine's
// optimistic unknowns.
func (lw *lockWalker) walkDefer(s *ast.DeferStmt, f lockFlow) lockFlow {
	release := func(call *ast.CallExpr) {
		if ref, op, ok := lw.lockOp(call); ok && (op == "Unlock" || op == "RUnlock") {
			f = f.update(ref, func(o *ownLock) { o.deferred = true })
		}
	}
	if _, _, ok := lw.lockOp(s.Call); ok {
		release(s.Call)
		return f
	}
	if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				release(call)
			}
			return true
		})
		return f
	}
	for _, arg := range s.Call.Args {
		f = lw.walkExpr(arg, f, nil)
	}
	return f
}

// walkClauses walks switch and type-switch cases from the same entry
// flow; without a default, skipping every case is one more arm.
func (lw *lockWalker) walkClauses(body *ast.BlockStmt, f lockFlow, pos token.Pos) lockFlow {
	arms := []lockFlow{f}
	for _, cl := range body.List {
		cc := cl.(*ast.CaseClause)
		if cc.List == nil {
			arms[0].dead = true
		}
		entry := f
		for _, e := range cc.List {
			entry = lw.walkExpr(e, entry, nil)
		}
		arms = append(arms, lw.walkStmts(cc.Body, entry))
	}
	return lw.join(pos, SiteSwitchDiffers, arms...)
}

// walkExpr walks an expression, threading the flow; tries, when non-nil,
// collects try-acquired locks for the enclosing if instead of adding them
// to the flowing sets.
func (lw *lockWalker) walkExpr(e ast.Expr, f lockFlow, tries *tryLocks) lockFlow {
	switch e := e.(type) {
	case *ast.CallExpr:
		if lit, ok := ast.Unparen(e.Fun).(*ast.FuncLit); ok {
			// Immediately-invoked literal: it runs here, under the held set.
			for _, arg := range e.Args {
				f = lw.walkExpr(arg, f, nil)
			}
			f.held = lw.walkBody(lit.Body, f.held)
			return f
		}
		f = lw.walkExpr(e.Fun, f, nil)
		for _, arg := range e.Args {
			f = lw.walkExpr(arg, f, nil)
		}
		return lw.walkCall(e, f, tries)
	case *ast.FuncLit:
		// A literal not invoked here runs at an unknown time: walk it with
		// nothing held so its acquisitions still register.
		lw.walkBody(e.Body, nil)
		return f
	case *ast.ParenExpr:
		return lw.walkExpr(e.X, f, tries)
	case *ast.UnaryExpr:
		if e.Op == token.NOT && tries != nil {
			var inner tryLocks
			f = lw.walkExpr(e.X, f, &inner)
			tries.then = append(tries.then, inner.els...)
			tries.els = append(tries.els, inner.then...)
			return f
		}
		f = lw.walkExpr(e.X, f, tries)
		if e.Op == token.ARROW {
			lw.heldSite(f, SiteRecv, e.OpPos, nil)
		}
		return f
	case *ast.BinaryExpr:
		f = lw.walkExpr(e.X, f, tries)
		return lw.walkExpr(e.Y, f, tries)
	case *ast.SelectorExpr:
		return lw.walkExpr(e.X, f, nil)
	case *ast.IndexExpr:
		f = lw.walkExpr(e.X, f, nil)
		return lw.walkExpr(e.Index, f, nil)
	case *ast.SliceExpr:
		f = lw.walkExpr(e.X, f, nil)
		for _, idx := range []ast.Expr{e.Low, e.High, e.Max} {
			if idx != nil {
				f = lw.walkExpr(idx, f, nil)
			}
		}
		return f
	case *ast.StarExpr:
		return lw.walkExpr(e.X, f, nil)
	case *ast.TypeAssertExpr:
		return lw.walkExpr(e.X, f, nil)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			f = lw.walkExpr(el, f, nil)
		}
		return f
	case *ast.KeyValueExpr:
		f = lw.walkExpr(e.Key, f, nil)
		return lw.walkExpr(e.Value, f, nil)
	}
	return f
}

// walkCall handles one (non-literal) call expression: lock operations
// move both views, other calls record the held set for the
// interprocedural pass and, while the function holds a lock, a SiteCall.
func (lw *lockWalker) walkCall(call *ast.CallExpr, f lockFlow, tries *tryLocks) lockFlow {
	ref, op, ok := lw.lockOp(call)
	if !ok {
		for _, callee := range lw.callees[call] {
			lw.info.calls = append(lw.info.calls, lockCall{pos: call.Pos(), callee: callee, held: heldClone(f.held)})
		}
		lw.heldSite(f, SiteCall, call.Pos(), call)
		return f
	}
	switch op {
	case "Lock", "RLock":
		if prev := f.lookup(ref); op == "Lock" && prev.depth > 0 {
			lw.site(f, LockSite{Kind: SiteRelock, Pos: call.Pos(), Lock: ref.key, LockPos: prev.pos})
		}
		lw.recordAcq(call, ref, f, false)
		return f.acquire(ref, call.Pos())
	case "TryLock", "TryRLock":
		lw.recordAcq(call, ref, f, true)
		if tries != nil {
			tries.then = append(tries.then, ref)
		} else if ref.id != "" {
			// Anywhere but an if condition the outcome is unknown: the
			// order view holds it from here on, the discipline view does
			// not (it would demand a release on the failure path).
			f.held = heldAdd(f.held, ref.id)
		}
		return f
	default: // Unlock, RUnlock
		if ref.id != "" {
			f.held = heldRemove(f.held, ref.id)
		}
		return f.update(ref, func(o *ownLock) { o.depth-- })
	}
}

// recordAcq records a named lock's acquisition site for the order view.
func (lw *lockWalker) recordAcq(call *ast.CallExpr, ref lockRef, f lockFlow, try bool) {
	if ref.id == "" {
		return
	}
	lw.info.Acqs = append(lw.info.Acqs, LockAcq{
		Pos: call.Pos(), Lock: ref.id, Held: heldClone(f.held), Try: try, Read: ref.read,
	})
}

// isPanic reports whether e is a call of the panic builtin.
func (lw *lockWalker) isPanic(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := lw.src.Pkg.Info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}

// lockOp reports whether call is a lock operation on a sync.Mutex or
// sync.RWMutex, naming its target.
func (lw *lockWalker) lockOp(call *ast.CallExpr) (lockRef, string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || len(call.Args) != 0 {
		return lockRef{}, "", false
	}
	op := sel.Sel.Name
	switch op {
	case "Lock", "RLock", "TryLock", "TryRLock", "Unlock", "RUnlock":
	default:
		return lockRef{}, "", false
	}
	info := lw.src.Pkg.Info
	tv, ok := info.Types[sel.X]
	if !ok || !isSyncLockType(tv.Type) {
		return lockRef{}, "", false
	}
	id, _ := canonicalLockID(info, sel.X)
	return lockRef{id: id, key: types.ExprString(sel.X), read: strings.Contains(op, "R")}, op, true
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
// (func(http.ResponseWriter, *http.Request), or a route table's handler
// that takes its path values after them) — mapped to the entry that
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

// isHTTPHandlerSig matches func(net/http.ResponseWriter, *net/http.Request),
// with or without further parameters after them: a route table calls its
// handlers through function values, which the call graph does not follow,
// so each handler is an entry of its own.
func isHTTPHandlerSig(sig *types.Signature) bool {
	if sig.Params().Len() < 2 || sig.Results().Len() != 0 {
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
