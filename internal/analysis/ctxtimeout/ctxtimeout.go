// Package ctxtimeout flags unbounded blocking in AnDrone's service plane —
// the packages that face the network or spawn workers (internal/cloud,
// internal/gcs, internal/service, and the cmd/ entry points). A virtual
// drone service sells flight time by the minute; a handler wedged on a
// dead peer or a goroutine with no cancellation path holds real drone
// resources hostage. Every blocking network call must carry a deadline and
// every spawned goroutine must have a way to be told to stop.
//
// Checks:
//   - http.ListenAndServe / ListenAndServeTLS: no server timeouts at all
//     (Slowloris-trivial); construct an http.Server with ReadHeaderTimeout.
//   - http.Server composite literals without ReadHeaderTimeout or
//     ReadTimeout.
//   - http.Client composite literals without Timeout: such a client blocks
//     forever on a dead peer (the androne-load client pool is the shape
//     this guards).
//   - http.Get / Post / PostForm / Head: http.DefaultClient has no timeout.
//   - net.Dial: no deadline; use net.DialTimeout or a net.Dialer (ideally
//     DialContext).
//   - go statements launching a function literal with no coordination
//     mechanism — no context.Context reference, no select, and no channel
//     operation — meaning nothing can ever stop or observe it.
package ctxtimeout

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"androne/internal/analysis/framework"
)

// Analyzer is the ctxtimeout analyzer.
var Analyzer = &framework.Analyzer{
	Name: "ctxtimeout",
	Doc: "require deadlines on blocking network calls and cancellation " +
		"paths on goroutines in the service plane",
	Run: run,
}

// scoped returns whether pkgPath is in the analyzer's jurisdiction. The
// service plane owns network entry points; flight-side packages have their
// own timing discipline (the 400 Hz loop) and are out of scope. The
// telemetry plane is in scope because its background flusher is the one
// long-lived goroutine outside the service plane: an uncancellable flusher
// would pin a drone's recorder forever.
func scoped(pkgPath string) bool {
	for _, s := range []string{
		"androne/internal/cloud",
		"androne/internal/gcs",
		"androne/internal/loadgen",
		"androne/internal/service",
		"androne/internal/telemetry",
		"androne/cmd/",
	} {
		if strings.Contains(pkgPath, s) || strings.HasSuffix(pkgPath, strings.TrimSuffix(s, "/")) {
			return true
		}
	}
	return false
}

// bannedCalls maps stdlib package path -> function name -> advice.
var bannedCalls = map[string]map[string]string{
	"net/http": {
		"ListenAndServe":    "serves with no timeouts (trivially wedged by slow clients); build an http.Server with ReadHeaderTimeout set and call its ListenAndServe",
		"ListenAndServeTLS": "serves with no timeouts (trivially wedged by slow clients); build an http.Server with ReadHeaderTimeout set and call its ListenAndServeTLS",
		"Get":               "uses http.DefaultClient, which has no timeout; use a Client with Timeout or NewRequestWithContext",
		"Post":              "uses http.DefaultClient, which has no timeout; use a Client with Timeout or NewRequestWithContext",
		"PostForm":          "uses http.DefaultClient, which has no timeout; use a Client with Timeout or NewRequestWithContext",
		"Head":              "uses http.DefaultClient, which has no timeout; use a Client with Timeout or NewRequestWithContext",
	},
	"net": {
		"Dial": "blocks with no deadline; use net.DialTimeout or a net.Dialer with DialContext",
	},
}

func run(pass *framework.Pass) error {
	if !scoped(pass.Pkg.Path()) {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.CompositeLit:
				checkServerLit(pass, n)
				checkClientLit(pass, n)
			case *ast.GoStmt:
				checkGo(pass, n)
			}
			return true
		})
	}
	return nil
}

func checkCall(pass *framework.Pass, call *ast.CallExpr) {
	fn := framework.Callee(pass.TypesInfo, call.Fun)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	if byName, ok := bannedCalls[fn.Pkg().Path()]; ok {
		// Package-level functions only; methods like (*http.Server).ListenAndServe
		// are the recommended replacement, not a violation.
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil {
			if advice, ok := byName[fn.Name()]; ok {
				pass.Reportf(call.Pos(), "%s.%s %s", fn.Pkg().Name(), fn.Name(), advice)
			}
		}
	}
}

// checkServerLit flags http.Server literals configured without read
// timeouts.
func checkServerLit(pass *framework.Pass, lit *ast.CompositeLit) {
	tv, ok := pass.TypesInfo.Types[lit]
	if !ok || !isHTTPServer(tv.Type) {
		return
	}
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if key, ok := kv.Key.(*ast.Ident); ok &&
			(key.Name == "ReadHeaderTimeout" || key.Name == "ReadTimeout") {
			return
		}
	}
	pass.Reportf(lit.Pos(), "http.Server without ReadHeaderTimeout or ReadTimeout never times out slow clients; set ReadHeaderTimeout")
}

// checkClientLit flags http.Client literals constructed without a Timeout:
// every client in the service plane (including the load harness's client
// pool) must bound its requests, or a dead peer wedges the caller forever.
func checkClientLit(pass *framework.Pass, lit *ast.CompositeLit) {
	tv, ok := pass.TypesInfo.Types[lit]
	if !ok || !isHTTPType(tv.Type, "Client") {
		return
	}
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Timeout" {
			return
		}
	}
	pass.Reportf(lit.Pos(), "http.Client without Timeout blocks forever on a dead peer; set Timeout (or use NewRequestWithContext per call)")
}

func isHTTPServer(t types.Type) bool { return isHTTPType(t, "Server") }

func isHTTPType(t types.Type, name string) bool {
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

// checkGo requires a spawned function literal to carry some coordination
// mechanism: a context.Context reference, a select statement, or any
// channel operation (send, receive, close, range). A goroutine with none of
// these can neither be stopped nor observed.
func checkGo(pass *framework.Pass, g *ast.GoStmt) {
	lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit)
	if !ok {
		return // named function: its body is checked where it is defined
	}
	if hasCoordination(pass, lit) {
		return
	}
	pass.Reportf(g.Pos(), "goroutine has no cancellation or completion path (no context, select, or channel operation); it can outlive its work and leak")
}

func hasCoordination(pass *framework.Pass, lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectStmt, *ast.SendStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			if tv, ok := pass.TypesInfo.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					found = true
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "close" {
				if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
					found = true
				}
			}
		case *ast.Ident:
			if obj := pass.TypesInfo.Uses[n]; obj != nil && isContext(obj.Type()) {
				found = true
			}
		}
		return !found
	})
	return found
}

func isContext(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}
