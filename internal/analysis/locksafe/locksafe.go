// Package locksafe checks sync.Mutex / sync.RWMutex discipline along every
// path of each function:
//
//   - a manually acquired lock must be released (directly or via defer) on
//     every return path;
//   - acquiring a lock already held by the same function is a deadlock
//     (sync.Mutex is not reentrant);
//   - channel operations and dynamic calls (interface methods, function
//     values) must not happen while a lock is held: the callee can block
//     indefinitely or call back into the locked component, which is exactly
//     how the paper's WaypointListener / VDC callback paths deadlock;
//   - the flight recorder's emission and interning entry points (Emit,
//     Dump, K) must not be called while a lock is held: they take the
//     recorder's own stripe/table locks, nesting lock orders across
//     components. The telemetry package itself is exempt (its internals
//     run under those locks by construction), as are its lock-sharded
//     counters (LocalCount), which exist precisely for under-lock use;
//   - conditional branches and loop bodies must leave the lock state they
//     found, otherwise later code runs with an unknowable lock state;
//   - copy-on-write snapshot discipline: a map obtained through an
//     atomic.Pointer Load is shared with lock-free readers, so writing or
//     deleting through it in place is a data race no matter what locks the
//     writer holds. Mutations must clone the map, edit the clone, and
//     Store the fresh map under the owning mutex (the pattern the binder
//     driver, device registry, and VFC whitelist follow).
//
// The lock rules are a reporter over the framework's lock-set walk, which
// records the discipline sites of every function in its must-hold view:
// locks keyed by the receiver as written (e.g. "c.mu"), no alias analysis,
// no interprocedural reasoning. Helpers that run with a caller's lock held
// follow the repo convention of an xxxLocked name and may release and
// re-acquire that lock. locksafe itself decides which calls under a lock
// are dynamic or telemetry entry points, and runs the snapshot rule, which
// needs no lock state.
package locksafe

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"androne/internal/analysis/framework"
)

// Analyzer is the locksafe analyzer.
var Analyzer = &framework.Analyzer{
	Name: "locksafe",
	Doc: "check mutex discipline: unlock on every path, no double-lock, " +
		"no channel ops or dynamic calls while a lock is held",
	Run: run,
}

func run(pass *framework.Pass) error {
	prog := pass.Program
	if prog == nil {
		return nil
	}
	world := prog.LockSets()
	for _, src := range prog.Funcs() {
		if src.Pkg.Pkg != pass.Pkg {
			continue
		}
		for _, s := range world.Info(src.Fn).Discipline {
			report(pass, s)
		}
		c := &checker{pass: pass, snap: make(map[string]token.Pos)}
		c.checkSnapshots(src.Decl.Body)
	}
	return nil
}

// report renders one discipline site the lock-set walk recorded.
func report(pass *framework.Pass, s framework.LockSite) {
	at := pass.ShortPos(s.LockPos)
	switch s.Kind {
	case framework.SiteHeldAtExit:
		pass.Reportf(s.Pos, "returning with %s held (locked at %s); unlock or defer the unlock", s.Lock, at)
	case framework.SiteRelock:
		pass.Reportf(s.Pos, "%s.Lock: already locked at %s (double lock deadlocks)", s.Lock, at)
	case framework.SiteIfDiffers:
		pass.Reportf(s.Pos, "lock state differs between branches of this if")
	case framework.SiteSwitchDiffers:
		pass.Reportf(s.Pos, "lock state differs between branches of this switch/select")
	case framework.SiteLoopDiffers:
		pass.Reportf(s.Pos, "lock state changes across loop iteration (lock/unlock not balanced in loop body)")
	case framework.SiteSend:
		pass.Reportf(s.Pos, "channel send while holding %s (locked at %s)", s.Lock, at)
	case framework.SiteRecv:
		pass.Reportf(s.Pos, "channel receive while holding %s (locked at %s)", s.Lock, at)
	case framework.SiteSelect:
		pass.Reportf(s.Pos, "select (channel operations) while holding %s (locked at %s)", s.Lock, at)
	case framework.SiteCall:
		checkDynamicCall(pass, s)
		checkTelemetryCall(pass, s)
	}
}

type checker struct {
	pass *framework.Pass
	// snap maps variable names to the position of the atomic.Pointer Load
	// their value came from — the COW-snapshot taint set. Tracking is
	// linear (last assignment wins, in source order) and name-based.
	snap map[string]token.Pos
}

// checkDynamicCall reports interface-method and function-value calls made
// while a lock is held. Static calls to declared functions are allowed: the
// analysis is intraprocedural and flags only dynamic dispatch, which is
// where the repo's callback deadlocks live (Sensors/MotorSink, Binder
// handlers, BreachAction, WaypointListener).
func checkDynamicCall(pass *framework.Pass, s framework.LockSite) {
	call := s.Call
	info := pass.TypesInfo
	fun := ast.Unparen(call.Fun)

	// Conversions and builtins are not calls.
	if tv, ok := info.Types[fun]; ok && (tv.IsType() || tv.IsBuiltin()) {
		return
	}
	switch fn := fun.(type) {
	case *ast.Ident:
		switch obj := info.Uses[fn].(type) {
		case *types.Func:
			return // static call
		case *types.Builtin, *types.TypeName, nil:
			return
		case *types.Var:
			_ = obj // function-valued variable or parameter: dynamic
		}
		if _, ok := info.Types[fn].Type.Underlying().(*types.Signature); !ok {
			return
		}
		pass.Reportf(call.Pos(), "call through function value %q while holding %s (locked at %s): callee may block or re-enter the lock",
			fn.Name, s.Lock, pass.ShortPos(s.LockPos))
	case *ast.SelectorExpr:
		sel, ok := info.Selections[fn]
		if !ok {
			// Package-qualified call (fmt.Errorf): static.
			return
		}
		switch sel.Kind() {
		case types.MethodVal:
			recv := sel.Recv()
			if types.IsInterface(recv) {
				pass.Reportf(call.Pos(), "interface method call %s.%s while holding %s (locked at %s): callee may block or re-enter the lock",
					types.ExprString(fn.X), fn.Sel.Name, s.Lock, pass.ShortPos(s.LockPos))
			}
		case types.FieldVal:
			// Calling a function-typed struct field.
			pass.Reportf(call.Pos(), "call through function field %q while holding %s (locked at %s): callee may block or re-enter the lock",
				fn.Sel.Name, s.Lock, pass.ShortPos(s.LockPos))
		}
	}
}

// telemetryPkgSuffix identifies the flight-recorder package. Matching by
// suffix keeps the rule working for the analyzer fixtures, which place a
// stub at the same androne/internal/telemetry import path.
const telemetryPkgSuffix = "internal/telemetry"

// telemetryEntryPoints are the telemetry calls that take recorder-internal
// locks (ring stripes, the key-intern table). Counter/Gauge updates are
// lock-free atomics and LocalCount is designed for under-lock use, so none
// of those are listed.
var telemetryEntryPoints = map[string]bool{
	"Emit": true,
	"Dump": true,
	"K":    true,
}

// checkTelemetryCall reports Emit/Dump/K calls into the telemetry package
// made while a lock is held. The telemetry package itself is exempt: its
// striped rings run under their own locks by construction.
func checkTelemetryCall(pass *framework.Pass, s framework.LockSite) {
	if strings.HasSuffix(pass.Pkg.Path(), telemetryPkgSuffix) {
		return
	}
	sel, ok := ast.Unparen(s.Call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || !strings.HasSuffix(fn.Pkg().Path(), telemetryPkgSuffix) {
		return
	}
	if !telemetryEntryPoints[fn.Name()] {
		return
	}
	pass.Reportf(s.Call.Pos(), "telemetry %s while holding %s (locked at %s): emission and interning take recorder locks; hoist the call outside the critical section",
		fn.Name(), s.Lock, pass.ShortPos(s.LockPos))
}

// --- copy-on-write snapshot discipline -------------------------------
//
// A map published through an atomic.Pointer is indexed by readers that
// hold no lock at all; the only safe mutation is clone-then-swap. The
// rule taints every variable whose value flows from a Pointer.Load and
// flags index writes, deletes, and m[k]++ through any tainted view —
// with or without a mutex held, because the readers never take one.
// Fresh maps (make, composite literals, maps.Clone results) clear the
// taint on assignment, which is exactly what admits the clone path.

// checkSnapshots applies the rule to one function body in source order.
// Function literal bodies are skipped: they do not run in line.
func (c *checker) checkSnapshots(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			c.checkSnapshotMutation(n)
			c.trackSnapshots(n)
		case *ast.IncDecStmt:
			if ix, ok := ast.Unparen(n.X).(*ast.IndexExpr); ok && c.isMapExpr(ix.X) {
				if pos, ok := c.snapshotView(ix.X); ok {
					c.reportSnapshotWrite(n.X.Pos(), pos)
				}
			}
		case *ast.CallExpr:
			c.checkSnapshotDelete(n)
		}
		return true
	})
}

// isAtomicPointerLoad reports whether e is a zero-argument Load() call on
// a sync/atomic.Pointer value.
func (c *checker) isAtomicPointerLoad(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Load" {
		return false
	}
	tv, ok := c.pass.TypesInfo.Types[sel.X]
	if !ok {
		return false
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic" && obj.Name() == "Pointer"
}

// snapshotView resolves an expression to its snapshot origin, if it is a
// view of an atomic.Pointer snapshot: the Load() call itself, a deref of
// one, or a variable the taint set already tracks.
func (c *checker) snapshotView(e ast.Expr) (token.Pos, bool) {
	e = ast.Unparen(e)
	if star, ok := e.(*ast.StarExpr); ok {
		e = ast.Unparen(star.X)
	}
	if c.isAtomicPointerLoad(e) {
		return e.Pos(), true
	}
	if id, ok := e.(*ast.Ident); ok {
		if pos, ok := c.snap[id.Name]; ok {
			return pos, true
		}
	}
	return token.NoPos, false
}

// isMapExpr reports whether e's type is (or points to) a map.
func (c *checker) isMapExpr(e ast.Expr) bool {
	tv, ok := c.pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	_, isMap := t.Underlying().(*types.Map)
	return isMap
}

// trackSnapshots updates the taint set for a 1:1 assignment: a snapshot
// view taints the target; any other value (make, clone, literal) clears
// it — the clearing is what lets clone-then-swap pass.
func (c *checker) trackSnapshots(s *ast.AssignStmt) {
	if len(s.Lhs) != len(s.Rhs) {
		return
	}
	for i, lhs := range s.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		if pos, ok := c.snapshotView(s.Rhs[i]); ok {
			c.snap[id.Name] = pos
		} else {
			delete(c.snap, id.Name)
		}
	}
}

// checkSnapshotMutation flags index writes through a snapshot view on the
// left-hand side of an assignment.
func (c *checker) checkSnapshotMutation(s *ast.AssignStmt) {
	for _, lhs := range s.Lhs {
		ix, ok := ast.Unparen(lhs).(*ast.IndexExpr)
		if !ok || !c.isMapExpr(ix.X) {
			continue
		}
		if pos, ok := c.snapshotView(ix.X); ok {
			c.reportSnapshotWrite(lhs.Pos(), pos)
		}
	}
}

// checkSnapshotDelete flags delete() on a snapshot view.
func (c *checker) checkSnapshotDelete(call *ast.CallExpr) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "delete" || len(call.Args) != 2 {
		return
	}
	if tv, ok := c.pass.TypesInfo.Types[call.Fun]; !ok || !tv.IsBuiltin() {
		return
	}
	if !c.isMapExpr(call.Args[0]) {
		return
	}
	if pos, ok := c.snapshotView(call.Args[0]); ok {
		c.pass.Reportf(call.Pos(), "delete from a map loaded from an atomic.Pointer snapshot (loaded at %s): readers index it lock-free; clone, mutate the clone, and Store the fresh map under the owning mutex",
			c.pass.ShortPos(pos))
	}
}

func (c *checker) reportSnapshotWrite(at, loadPos token.Pos) {
	c.pass.Reportf(at, "write to a map loaded from an atomic.Pointer snapshot (loaded at %s): readers index it lock-free; clone, mutate the clone, and Store the fresh map under the owning mutex",
		c.pass.ShortPos(loadPos))
}
