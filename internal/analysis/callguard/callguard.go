// Package callguard enforces AnDrone's two compile-time isolation
// boundaries as one policy table of "API X may be referenced only from
// callers Y":
//
//   - Binder namespace isolation (§4.1–4.2): cross-container service
//     registration flows only through the publish ioctls, and only the
//     trusted boot layers touch namespace plumbing. Binder's guarantee —
//     "no communication can occur without first obtaining a handle" —
//     holds only if nothing else forges processes in foreign namespaces or
//     registers services behind the Context Manager's back.
//   - The VFC command whitelist (§4.3): a tenant reaches the flight
//     controller only through its virtual flight controller, which checks
//     every MAVLink message against the rental's whitelist and geofence.
//     Raw dispatch, (*flight.Controller).HandleMessage, is called only from
//     (*mavproxy.Master).Send and (*mavproxy.VFC).Send, and the
//     unrestricted master handle stays with provider code.
//
// Every reference to a guarded method counts, whether it is called or taken
// as a method value (a bound value can be invoked later from anywhere). A
// reference inside a function literal counts as outside the declaration
// that encloses the literal, unless the literal is called where it is
// written: a stored or returned literal carries the call out of its
// allowed caller just as a method value does. The guarded method's own
// package is always allowed.
package callguard

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"androne/internal/analysis/framework"
)

// Analyzer is the callguard analyzer.
var Analyzer = &framework.Analyzer{
	Name: "callguard",
	Doc: "restrict binder namespace plumbing, AddService transactions and " +
		"MAVLink dispatch into the flight controller to their trusted callers",
	Run: run,
}

// member names a package (by import-path suffix, so fixtures under
// testdata/src/androne/... match the real tree), or a function or method
// in it. An empty recv matches plain functions and methods alike.
type member struct{ pkg, recv, name string }

// A rule admits references to one method from its callers only. A caller
// naming a function admits references inside that function's body.
type rule struct {
	api     member
	callers []member
	// arg and code, when code is set, narrow the rule to references that
	// may pass api.pkg's constant code as argument arg: a call whose
	// argument is not constant, or a method value, may.
	arg  int
	code string
	// values narrows the rule to method values.
	values bool
	// msg is the finding; a %s in it names the rejected caller.
	msg string
}

const (
	binderPkg   = "androne/internal/binder"
	androidPkg  = "androne/internal/android"
	devconPkg   = "androne/internal/devcon"
	flightPkg   = "androne/internal/flight"
	mavproxyPkg = "androne/internal/mavproxy"
)

// rules is the policy. Rules for one method are graded: a reference is
// reported once, by the first rule that rejects it.
var rules = []rule{
	plumbing("Namespace", "Attach", androidPkg),
	plumbing("Proc", "BecomeContextManager", androidPkg),
	plumbing("Proc", "PublishToAllNS", devconPkg),
	plumbing("Proc", "PublishToDevCon", devconPkg),
	plumbing("Driver", "SetDeviceNamespace", devconPkg),
	{api: member{binderPkg, "Proc", "Transact"}, callers: []member{{pkg: androidPkg}},
		arg: 1, code: "CodeAddService",
		msg: "direct AddService transaction bypasses the namespace registration path; use the framework (android.Client.AddService) or the publish ioctls"},

	{api: member{flightPkg, "Controller", "HandleMessage"}, values: true,
		msg: "flight.Controller.HandleMessage captured as a method value escapes the VFC whitelist boundary; call it only inside the checked Send paths"},
	{api: member{flightPkg, "Controller", "HandleMessage"}, callers: []member{{pkg: mavproxyPkg}},
		msg: "flight.Controller.HandleMessage bypasses the VFC whitelist; send through (*mavproxy.VFC).Send or the provider's Master channel"},
	{api: member{flightPkg, "Controller", "HandleMessage"}, callers: []member{{mavproxyPkg, "", "Send"}},
		msg: "within mavproxy, flight.Controller.HandleMessage may only be invoked from the Send methods that enforce the whitelist, not %s"},
	{api: member{flightPkg, "Controller", "HandleMessage"}, callers: []member{{mavproxyPkg, "Master", "Send"}, {mavproxyPkg, "VFC", "Send"}},
		msg: "flight.Controller.HandleMessage may only be dispatched from (*Master).Send or (*VFC).Send, not %s"},

	// internal/simharness plays the cloud flight planner's trusted role
	// (takeoff, transit routing, deterministic fault injection).
	{api: member{mavproxyPkg, "Proxy", "Master"}, callers: []member{{pkg: "androne/internal/core"}, {pkg: "androne/internal/simharness"}},
		msg: "Proxy.Master hands out the unrestricted MAVLink channel and is reserved for core, mavproxy and simharness; tenant traffic goes through a VFC"},
}

// plumbing is the rule for a binder namespace-plumbing method.
func plumbing(recv, name, caller string) rule {
	return rule{api: member{binderPkg, recv, name}, callers: []member{{pkg: caller}},
		msg: "binder." + name + " is namespace plumbing reserved for " + caller +
			"; route cross-container access through the publish APIs"}
}

// byName indexes rules by method name, in table order, so the walk types
// only selectors that can match.
var byName = func() map[string][]*rule {
	m := make(map[string][]*rule)
	for i := range rules {
		m[rules[i].api.name] = append(m[rules[i].api.name], &rules[i])
	}
	return m
}()

func run(pass *framework.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, _ := decl.(*ast.FuncDecl)
			walk(pass, decl, site{fd: fd})
		}
	}
	return nil
}

// site is where a reference is written: inside fd (nil at package scope),
// and, when lit is set, inside a function literal there that is not
// called where it is written.
type site struct {
	fd  *ast.FuncDecl
	lit bool
}

// walk checks every guarded reference under root, written at the site.
func walk(pass *framework.Pass, root ast.Node, at site) {
	var callee *ast.SelectorExpr // the Fun of the innermost call entered
	var calledLit *ast.FuncLit   // the same, for a literal called in place
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			switch fun := ast.Unparen(n.Fun).(type) {
			case *ast.SelectorExpr:
				callee = fun
				check(pass, at, fun, n)
			case *ast.FuncLit:
				calledLit = fun
			}
		case *ast.FuncLit:
			if !at.lit && n != calledLit {
				walk(pass, n, site{fd: at.fd, lit: true})
				return false
			}
		case *ast.SelectorExpr:
			if n != callee {
				check(pass, at, n, nil)
			}
		}
		return true
	})
}

// check reports sel, a reference written at the site, against the first
// rule that rejects it. call is the call sel is the callee of, or nil for a
// method value.
func check(pass *framework.Pass, at site, sel *ast.SelectorExpr, call *ast.CallExpr) {
	rs := byName[sel.Sel.Name]
	if len(rs) == 0 {
		return
	}
	fn, _ := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	for _, r := range rs {
		if !framework.IsMethod(fn, r.api.pkg, r.api.recv, r.api.name) ||
			framework.HasPkgSuffix(pass.Pkg, r.api.pkg) ||
			!r.applies(pass, fn, sel, call) || r.admits(pass.Pkg, at) {
			continue
		}
		pass.Report(framework.Diagnostic{Pos: sel.Pos(), Message: strings.Replace(r.msg, "%s", r.callerName(at), 1)})
		return
	}
}

// applies reports whether the rule covers this reference at all.
func (r *rule) applies(pass *framework.Pass, fn *types.Func, sel *ast.SelectorExpr, call *ast.CallExpr) bool {
	switch {
	case call == nil:
		return true // a method value: any argument may follow
	case r.values:
		return false
	case r.code == "":
		return true
	}
	args := call.Args
	if s := pass.TypesInfo.Selections[sel]; s != nil && s.Kind() == types.MethodExpr {
		args = args[1:] // (*T).M(recv, ...)
	}
	v := pass.TypesInfo.Types[args[r.arg]].Value
	c, ok := fn.Pkg().Scope().Lookup(r.code).(*types.Const)
	return v == nil || !ok || constant.Compare(v, token.EQL, c.Val())
}

// admits reports whether a reference written at the site in package pkg is
// allowed. A function literal that escapes its declaration is no named
// caller, so only a rule admitting the whole package admits it.
func (r *rule) admits(pkg *types.Package, at site) bool {
	fd := at.fd
	for _, c := range r.callers {
		if framework.HasPkgSuffix(pkg, c.pkg) && (c.name == "" ||
			!at.lit && fd != nil && fd.Name.Name == c.name && (c.recv == "" || framework.ReceiverTypeName(fd) == c.recv)) {
			return true
		}
	}
	return false
}

// callerName names the site as finely as the rule's callers do.
func (r *rule) callerName(at site) string {
	fd := at.fd
	name := "package scope"
	if fd != nil {
		name = fd.Name.Name
		for _, c := range r.callers {
			if c.recv != "" {
				name = "(" + framework.ReceiverTypeName(fd) + ")." + fd.Name.Name
				break
			}
		}
	}
	if at.lit {
		return "a function literal in " + name
	}
	return name
}
