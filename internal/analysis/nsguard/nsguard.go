// Package nsguard enforces AnDrone's Binder namespace isolation invariant
// at compile time: cross-container service registration flows only through
// the publish ioctls (PUBLISH_TO_ALL_NS / PUBLISH_TO_DEV_CON), and only the
// architectural layers the paper designates may touch namespace plumbing.
//
// Binder's isolation guarantee — "no communication can occur without first
// obtaining a handle" — only holds if nothing outside the trusted boot path
// forges processes in foreign namespaces or registers services behind the
// Context Manager's back. nsguard pins each privileged binder API to the
// single package allowed to call it:
//
//	(*binder.Namespace).Attach            -> internal/android (process boot)
//	(*binder.Proc).BecomeContextManager   -> internal/android (ServiceManager)
//	(*binder.Proc).PublishToAllNS         -> internal/devcon  (device container)
//	(*binder.Proc).PublishToDevCon        -> internal/devcon  (device container)
//	(*binder.Driver).SetDeviceNamespace   -> internal/devcon  (device container)
//	Transact(..., binder.CodeAddService)  -> internal/android (Client.AddService)
//
// Everything else must obtain services through GetService lookups in its
// own namespace — the path the driver can police.
package nsguard

import (
	"go/ast"
	"go/types"
	"strings"

	"androne/internal/analysis/framework"
)

// Analyzer is the nsguard analyzer.
var Analyzer = &framework.Analyzer{
	Name: "nsguard",
	Doc: "restrict binder namespace plumbing and cross-namespace service " +
		"registration to the designated trusted packages",
	Run: run,
}

// binderPath identifies the guarded package by import-path suffix, so the
// analyzer works identically on the real tree and on analysistest fixtures.
const binderPath = "androne/internal/binder"

// guarded maps a method name on a binder type to the import-path suffixes
// allowed to call it.
var guarded = map[string][]string{
	"Attach":               {"androne/internal/android"},
	"BecomeContextManager": {"androne/internal/android"},
	"PublishToAllNS":       {"androne/internal/devcon"},
	"PublishToDevCon":      {"androne/internal/devcon"},
	"SetDeviceNamespace":   {"androne/internal/devcon"},
}

// addServiceAllowed are the packages that may pass binder.CodeAddService to
// Transact directly (the framework's Client.AddService).
var addServiceAllowed = []string{"androne/internal/android"}

func run(pass *framework.Pass) error {
	pkgPath := pass.Pkg.Path()
	if strings.HasSuffix(pkgPath, binderPath) {
		return nil // the driver itself implements the ioctls
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || !isBinderMethod(fn) {
				return true
			}
			if allowed, isGuarded := guarded[fn.Name()]; isGuarded && !framework.HasAnyPkgSuffix(pass.Pkg, allowed) {
				pass.Reportf(call.Pos(),
					"binder.%s is namespace plumbing reserved for %s; route cross-container access through the publish APIs",
					fn.Name(), strings.Join(allowed, ", "))
			}
			if fn.Name() == "Transact" && len(call.Args) >= 2 &&
				isAddServiceCode(pass, call.Args[1]) && !framework.HasAnyPkgSuffix(pass.Pkg, addServiceAllowed) {
				pass.Reportf(call.Pos(),
					"direct AddService transaction bypasses the namespace registration path; use the framework (android.Client.AddService) or the publish ioctls")
			}
			return true
		})
	}
	return nil
}

// isBinderMethod reports whether fn is a method declared in the binder
// package.
func isBinderMethod(fn *types.Func) bool {
	if fn.Pkg() == nil || !strings.HasSuffix(fn.Pkg().Path(), binderPath) {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}

// isAddServiceCode reports whether the expression resolves to the
// binder.CodeAddService constant.
func isAddServiceCode(pass *framework.Pass, e ast.Expr) bool {
	e = ast.Unparen(e)
	var id *ast.Ident
	switch v := e.(type) {
	case *ast.Ident:
		id = v
	case *ast.SelectorExpr:
		id = v.Sel
	default:
		return false
	}
	c, ok := pass.TypesInfo.Uses[id].(*types.Const)
	return ok && c.Name() == "CodeAddService" &&
		c.Pkg() != nil && strings.HasSuffix(c.Pkg().Path(), binderPath)
}
