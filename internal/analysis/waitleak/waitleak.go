// Package waitleak convicts goroutines that can block forever — the
// liveness half of the concurrency contract, next to lockorder's deadlock
// half. A leaked goroutine on the cloud side is quota a tenant burned for
// free; on the flight side it is a stalled stop path. Three rules, all
// deliberately syntactic and local (the suite's usual posture — convict
// what can be proven from one function's body, document the rest):
//
//   - Channel with no counterparty: an unbuffered channel created in a
//     function that never escapes it (not passed, stored, returned, or
//     captured into anything but sends/receives/close) and is only ever
//     sent to — or only ever received from, with no close — blocks its
//     user forever. Each orphan operation is convicted. Buffered
//     channels and escaping channels are out of jurisdiction.
//
//   - Spawned goroutine with no way out: a `go func() { ... }` whose body
//     contains an unconditional `for` loop (or an empty `select{}`) with
//     no return, no break out of the loop, and no panic can never
//     terminate. The fix the finding names is the repo idiom: a stop
//     channel or context case in the loop's select that returns.
//
//   - WaitGroup misuse across branches: wg.Add inside the spawned
//     goroutine races with the parent's Wait (Wait may run before Add);
//     and a goroutine whose wg.Done sits only on some branches (inside an
//     if/switch/select/loop, or positioned after a possible early return)
//     under-counts on the paths that skip it, hanging Wait forever. The
//     guaranteed forms — top-level `defer wg.Done()`, or a top-level call
//     in a body with no early return — stay silent.
//
// Suppression is the usual reviewed //vet:allow waitleak on the line.
package waitleak

import (
	"go/ast"
	"go/token"
	"go/types"

	"androne/internal/analysis/framework"
)

// Analyzer is the waitleak analyzer.
var Analyzer = &framework.Analyzer{
	Name: "waitleak",
	Doc: "convict goroutines that can block forever: channel operations " +
		"with no counterparty, spawned goroutines with no stop path, and " +
		"WaitGroup Add/Done mismatches across branches",
	Run: run,
}

func run(pass *framework.Pass) error {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkChannels(pass, fd)
			checkGoroutines(pass, fd)
		}
	}
	return nil
}

// chanUse accumulates one local channel's uses across the function.
type chanUse struct {
	makePos  token.Pos
	name     string
	sends    []token.Pos
	receives []token.Pos
	closes   int
	escapes  bool
}

// checkChannels implements the no-counterparty rule for unbuffered
// channels local to fd.
func checkChannels(pass *framework.Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	chans := make(map[*types.Var]*chanUse)

	// Pass 1: find `ch := make(chan T)` (and var forms) with no buffer or
	// a constant-zero buffer, binding a plain local identifier.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) {
					break
				}
				registerChan(info, chans, n.Lhs[i], rhs)
			}
		case *ast.DeclStmt:
			if gd, ok := n.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for i, val := range vs.Values {
							if i < len(vs.Names) {
								registerChan(info, chans, vs.Names[i], val)
							}
						}
					}
				}
			}
		}
		return true
	})
	if len(chans) == 0 {
		return
	}

	// Pass 2: classify every use of each tracked channel.
	classifyUses(pass, fd.Body, chans)

	// Verdicts, in source order of the tracked channels.
	for _, cu := range chans {
		if cu.escapes {
			continue
		}
		if len(cu.sends) > 0 && len(cu.receives) == 0 {
			for _, pos := range cu.sends {
				pass.Reportf(pos,
					"send on %s can block forever: the unbuffered channel (created at line %d) never escapes %s and nothing in it receives",
					cu.name, pass.Fset.Position(cu.makePos).Line, fd.Name.Name)
			}
		}
		if len(cu.receives) > 0 && len(cu.sends) == 0 && cu.closes == 0 {
			for _, pos := range cu.receives {
				pass.Reportf(pos,
					"receive from %s can block forever: the unbuffered channel (created at line %d) never escapes %s and nothing in it sends or closes it",
					cu.name, pass.Fset.Position(cu.makePos).Line, fd.Name.Name)
			}
		}
	}
}

// registerChan records lhs as a tracked channel when rhs is an unbuffered
// make(chan T).
func registerChan(info *types.Info, chans map[*types.Var]*chanUse, lhs, rhs ast.Expr) {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok {
		return
	}
	fn, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return
	}
	if b, ok := info.Uses[fn].(*types.Builtin); !ok || b.Name() != "make" {
		return
	}
	if len(call.Args) == 0 {
		return
	}
	if tv, ok := info.Types[call.Args[0]]; !ok || tv.Type == nil {
		return
	} else if _, isChan := tv.Type.Underlying().(*types.Chan); !isChan {
		return
	}
	if len(call.Args) >= 2 {
		tv, ok := info.Types[call.Args[1]]
		if !ok || tv.Value == nil || tv.Value.String() != "0" {
			return // buffered (or unknown capacity): out of jurisdiction
		}
	}
	var obj *types.Var
	if def, ok := info.Defs[id].(*types.Var); ok {
		obj = def
	} else if use, ok := info.Uses[id].(*types.Var); ok {
		obj = use
	}
	if obj == nil {
		return
	}
	chans[obj] = &chanUse{makePos: call.Pos(), name: id.Name}
}

// classifyUses walks the body once, attributing each appearance of a
// tracked channel to a send, receive, close, or escape.
func classifyUses(pass *framework.Pass, body *ast.BlockStmt, chans map[*types.Var]*chanUse) {
	info := pass.TypesInfo
	lookup := func(e ast.Expr) *chanUse {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return nil
		}
		obj, _ := info.Uses[id].(*types.Var)
		if obj == nil {
			obj, _ = info.Defs[id].(*types.Var)
		}
		return chans[obj]
	}
	// claimed marks identifier nodes consumed by a recognized operation so
	// the generic escape pass below skips them.
	claimed := make(map[ast.Node]bool)
	mark := func(e ast.Expr) {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			claimed[id] = true
		}
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			if cu := lookup(n.Chan); cu != nil {
				cu.sends = append(cu.sends, n.Arrow)
				mark(n.Chan)
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				if cu := lookup(n.X); cu != nil {
					cu.receives = append(cu.receives, n.OpPos)
					mark(n.X)
				}
			}
		case *ast.RangeStmt:
			if cu := lookup(n.X); cu != nil {
				cu.receives = append(cu.receives, n.For)
				mark(n.X)
			}
		case *ast.CallExpr:
			if fn, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if b, ok := info.Uses[fn].(*types.Builtin); ok {
					switch b.Name() {
					case "close":
						if len(n.Args) == 1 {
							if cu := lookup(n.Args[0]); cu != nil {
								cu.closes++
								mark(n.Args[0])
							}
						}
					case "len", "cap":
						if len(n.Args) == 1 {
							mark(n.Args[0]) // neutral use
						}
					}
				}
			}
		}
		return true
	})

	// Escape pass: any remaining appearance (argument, assignment source,
	// return value, composite element, redefinition target...) of a
	// tracked channel forfeits the proof.
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || claimed[id] {
			return true
		}
		obj, _ := info.Uses[id].(*types.Var)
		if obj == nil {
			return true
		}
		if cu := chans[obj]; cu != nil {
			cu.escapes = true
		}
		return true
	})
}

// checkGoroutines implements the no-way-out and WaitGroup rules over every
// go statement in fd.
func checkGoroutines(pass *framework.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit)
		if !ok {
			return true // go f(): the callee's own body is checked where declared
		}
		checkForever(pass, lit.Body)
		checkWaitGroup(pass, lit.Body)
		return true
	})
}

// checkForever convicts unconditional loops (and empty selects) in a
// spawned goroutine body that no statement can ever exit.
func checkForever(pass *framework.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // nested literal: its go sites are checked separately
		case *ast.SelectStmt:
			if len(n.Body.List) == 0 {
				pass.Reportf(n.Pos(), "spawned goroutine blocks forever: empty select has no case and no way out")
				return false
			}
		case *ast.ForStmt:
			if n.Cond == nil && !loopExits(pass, n) {
				pass.Reportf(n.Pos(),
					"spawned goroutine never terminates: the for loop has no return, break, or panic on any path — give it a stop channel or context case that returns")
				return false // inner loops are moot once the outer can't exit
			}
		}
		return true
	})
}

// loopExits reports whether the unconditional loop has any way out: a
// return, a break targeting it (directly or by label), a goto, a call to
// panic or runtime.Goexit. Nested function literals don't count (their
// returns exit the literal, not the loop).
func loopExits(pass *framework.Pass, loop *ast.ForStmt) bool {
	exits := false
	var visit func(n ast.Node, depth int)
	visit = func(n ast.Node, depth int) {
		if exits || n == nil {
			return
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return
		case *ast.ReturnStmt:
			exits = true
			return
		case *ast.BranchStmt:
			switch n.Tok {
			case token.GOTO:
				exits = true // the target may be outside; give the benefit of the doubt
			case token.BREAK:
				// Unlabeled break exits the innermost for/switch/select; it
				// exits OUR loop only at depth zero. A labeled break is
				// assumed to target an enclosing statement and counts.
				if depth == 0 || n.Label != nil {
					exits = true
				}
			}
			return
		case *ast.CallExpr:
			if isPanicOrGoexit(pass, n) {
				exits = true
			}
			return
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			for _, c := range children(n) {
				visit(c, depth+1)
			}
			return
		}
		for _, c := range children(n) {
			visit(c, depth)
		}
	}
	for _, s := range loop.Body.List {
		visit(s, 0)
	}
	return exits
}

// children returns n's direct AST children.
func children(n ast.Node) []ast.Node {
	var out []ast.Node
	ast.Inspect(n, func(c ast.Node) bool {
		if c == nil {
			return false
		}
		if c == n {
			return true
		}
		out = append(out, c)
		return false
	})
	return out
}

func isPanicOrGoexit(pass *framework.Pass, call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		b, ok := pass.TypesInfo.Uses[fun].(*types.Builtin)
		return ok && b.Name() == "panic"
	case *ast.SelectorExpr:
		fn, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		return ok && fn.Pkg() != nil && fn.Pkg().Path() == "runtime" && fn.Name() == "Goexit"
	}
	return false
}

// checkWaitGroup convicts WaitGroup misuse inside one spawned goroutine
// body: Add after the spawn, and Done calls that some branch can skip.
func checkWaitGroup(pass *framework.Pass, body *ast.BlockStmt) {
	var dones []*ast.CallExpr
	guaranteed := false
	earlyReturn := false

	// Top-level statements: defer wg.Done() (runs on every exit) or a
	// plain wg.Done() call (runs unless an early return skips it).
	topLevelDone := false
	for _, s := range body.List {
		switch s := s.(type) {
		case *ast.DeferStmt:
			if isWGCall(pass, s.Call, "Done") {
				guaranteed = true
			}
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok && isWGCall(pass, call, "Done") {
				topLevelDone = true
			}
		}
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			earlyReturn = true
		case *ast.CallExpr:
			if isWGCall(pass, n, "Add") {
				pass.Reportf(n.Pos(),
					"WaitGroup.Add inside the spawned goroutine races with Wait: Add before the go statement")
			}
			if isWGCall(pass, n, "Done") {
				dones = append(dones, n)
			}
		}
		return true
	})

	if topLevelDone && !earlyReturn {
		guaranteed = true
	}
	if len(dones) > 0 && !guaranteed {
		pass.Reportf(dones[0].Pos(),
			"WaitGroup.Done can be skipped on some path (Add/Done mismatch hangs Wait forever): defer wg.Done() at the top of the goroutine")
	}
}

// isWGCall reports whether call is method(...) on a sync.WaitGroup.
func isWGCall(pass *framework.Pass, call *ast.CallExpr, method string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return false
	}
	tv, ok := pass.TypesInfo.Types[sel.X]
	if !ok {
		return false
	}
	t := tv.Type
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "WaitGroup" && obj.Pkg() != nil && obj.Pkg().Path() == "sync"
}
