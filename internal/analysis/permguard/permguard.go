// Package permguard proves, over the whole-program call graph, the
// AnDrone device-access invariant (paper §4.1–4.2): every path from a
// device-service transaction handler to a hardware sink must be dominated
// by the combined permission check — checkPermission bridging to the
// calling container's ActivityManager AND the VDC policy (AllowDevice).
//
// "Dominated" is structural, not line-proximity: the guard call must
// execute on every control-flow path that later reaches the sink
// (framework.Dominates). A policy check that is merely present but
// bypassable on one branch — an early dispatch before the check, a check
// buried in a conditional — does not count.
//
// Definitions, matched by package suffix so fixtures apply:
//
//   - entry: a function used as a binder.Handler value (registered with
//     NewNode, assigned to a Handler variable/parameter, or converted);
//   - guard: a function from which both a permission primitive
//     (ActivityManager.CheckPermission in internal/android, or any
//     function named checkPermission) and a policy primitive (any method
//     named AllowDevice) are reachable over the call graph;
//   - sink: a Capture/Read/Play/HeadingDeg/Write/Open method on a type
//     declared in internal/devices.
//
// Soundness caveats (see DESIGN.md): calls through plain function values
// and reflection are not resolved, and a dominating guard call is trusted
// to gate its continuation — errflow separately convicts guards whose
// returned error is dropped, so the two analyzers together close the loop.
package permguard

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"androne/internal/analysis/framework"
)

// Analyzer is the permguard analyzer.
var Analyzer = &framework.Analyzer{
	Name: "permguard",
	Doc: "every call path from a device-service handler to a hardware sink " +
		"must be dominated by the permission check and the VDC policy check",
	Run: run,
}

var sinkNames = map[string]bool{
	"Capture": true, "Read": true, "Play": true,
	"HeadingDeg": true, "Write": true, "Open": true,
}

// isSink reports whether fn is a hardware-touching device method.
func isSink(fn *types.Func) bool {
	if fn == nil || !sinkNames[fn.Name()] {
		return false
	}
	recv := framework.MethodRecv(fn)
	return recv != nil && framework.HasPkgSuffix(recv.Obj().Pkg(), "androne/internal/devices")
}

// isPermPrimitive matches the permission-check primitives.
func isPermPrimitive(fn *types.Func) bool {
	return framework.IsMethod(fn, "androne/internal/android", "ActivityManager", "CheckPermission") ||
		fn.Name() == "checkPermission"
}

// isPolicyPrimitive matches the VDC policy primitive (the devcon.Policy
// interface and every implementer).
func isPolicyPrimitive(fn *types.Func) bool {
	return fn.Name() == "AllowDevice"
}

// finding is one unguarded sink, positioned for per-package reporting.
type finding struct {
	pos token.Pos
	pkg *types.Package
	msg string
}

func run(pass *framework.Pass) error {
	if pass.Program == nil {
		return nil // no whole-program view; nothing provable
	}
	findings := pass.Program.Memo("permguard", func() any {
		return analyze(pass.Program)
	}).([]finding)
	for _, f := range findings {
		if f.pkg == pass.Pkg {
			pass.Reportf(f.pos, "%s", f.msg)
		}
	}
	return nil
}

func analyze(prog *framework.Program) []finding {
	g := prog.CallGraph()
	permReach := g.ReverseClosure(isPermPrimitive)
	policyReach := g.ReverseClosure(isPolicyPrimitive)
	guard := func(fn *types.Func) bool { return permReach[fn] && policyReach[fn] }
	sinkReach := g.ReverseClosure(isSink)

	var findings []finding
	seen := make(map[token.Pos]bool) // one report per sink call site
	type state struct {
		fn      *types.Func
		guarded bool
	}
	visited := make(map[state]bool)

	var walk func(src *framework.FuncSource, guarded bool, path []string)
	walk = func(src *framework.FuncSource, guarded bool, path []string) {
		key := state{src.Fn, guarded}
		if visited[key] {
			return
		}
		visited[key] = true
		body := src.Decl.Body

		var guardSites []token.Pos
		for _, site := range g.CallsFrom(src.Fn) {
			if guard(site.Callee) {
				guardSites = append(guardSites, site.Call.Pos())
			}
		}
		protected := func(pos token.Pos) bool {
			if guarded {
				return true
			}
			for _, gp := range guardSites {
				if framework.Dominates(body, gp, pos) {
					return true
				}
			}
			return false
		}

		for _, site := range g.CallsFrom(src.Fn) {
			// Extend the path into a fresh slice: append on the shared
			// backing array would clobber sibling paths.
			step := make([]string, len(path)+1)
			copy(step, path)
			step[len(path)] = site.Callee.Name()
			if isSink(site.Callee) && !protected(site.Call.Pos()) && !seen[site.Call.Pos()] {
				seen[site.Call.Pos()] = true
				findings = append(findings, finding{
					pos: site.Call.Pos(),
					pkg: src.Pkg.Pkg,
					msg: "hardware sink " + calleeName(site.Callee) +
						" is reachable from handler " + path[0] +
						" without a dominating permission+policy check (path: " +
						strings.Join(step, " -> ") + ")",
				})
			}
			if callee := prog.Source(site.Callee); callee != nil && sinkReach[site.Callee] {
				walk(callee, protected(site.Call.Pos()), step)
			}
		}
	}

	for _, entry := range entryPoints(prog) {
		if src := prog.Source(entry); src != nil && sinkReach[entry] {
			walk(src, false, []string{entry.Name()})
		}
	}
	return findings
}

func calleeName(fn *types.Func) string {
	if recv := framework.MethodRecv(fn); recv != nil {
		return recv.Obj().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// entryPoints finds every function used as a binder.Handler value anywhere
// in the Program: handler registrations (NewNode), Handler-typed
// assignments, declarations, and conversions.
func entryPoints(prog *framework.Program) []*types.Func {
	var out []*types.Func
	added := make(map[*types.Func]bool)
	add := func(fn *types.Func) {
		if fn != nil && !added[fn] {
			added[fn] = true
			out = append(out, fn)
		}
	}
	isHandler := func(t types.Type) bool {
		return framework.IsNamed(t, "androne/internal/binder", "Handler")
	}
	for _, pkg := range prog.Packages {
		info := pkg.Info
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					tv, ok := info.Types[n.Fun]
					if !ok {
						return true
					}
					if tv.IsType() {
						// Conversion binder.Handler(f).
						if isHandler(tv.Type) && len(n.Args) == 1 {
							add(framework.Callee(info, n.Args[0]))
						}
						return true
					}
					sig, ok := tv.Type.Underlying().(*types.Signature)
					if !ok {
						return true
					}
					for i, arg := range n.Args {
						if pt := paramType(sig, i); pt != nil && isHandler(pt) {
							add(framework.Callee(info, arg))
						}
					}
				case *ast.AssignStmt:
					if len(n.Lhs) != len(n.Rhs) {
						return true
					}
					for i, lhs := range n.Lhs {
						if tv, ok := info.Types[lhs]; ok && isHandler(tv.Type) {
							add(framework.Callee(info, n.Rhs[i]))
						}
					}
				case *ast.ValueSpec:
					for i, name := range n.Names {
						obj := info.Defs[name]
						if obj == nil || !isHandler(obj.Type()) {
							continue
						}
						if i < len(n.Values) {
							add(framework.Callee(info, n.Values[i]))
						}
					}
				}
				return true
			})
		}
	}
	return out
}

// paramType resolves the type of argument i under sig, unrolling variadics.
func paramType(sig *types.Signature, i int) types.Type {
	params := sig.Params()
	if params.Len() == 0 {
		return nil
	}
	if sig.Variadic() && i >= params.Len()-1 {
		if sl, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
			return sl.Elem()
		}
		return nil
	}
	if i < params.Len() {
		return params.At(i).Type()
	}
	return nil
}
