// Package whitelistguard enforces the VFC command-whitelist boundary from
// the AnDrone paper (§4.3): a tenant's virtual drone may only reach the
// flight controller through its virtual flight controller, which checks
// every MAVLink message against the rental's whitelist template and
// geofence before forwarding. The raw dispatch entry point —
// (*flight.Controller).HandleMessage — is therefore restricted to exactly
// two call sites:
//
//	(*mavproxy.Master).Send — the provider's unrestricted master channel
//	(*mavproxy.VFC).Send    — after the whitelist + geofence checks
//
// The unrestricted master handle itself, (*mavproxy.Proxy).Master, is
// provider plumbing and restricted to internal/core (mission execution).
//
// Checks:
//   - any call to flight.Controller.HandleMessage outside those two
//     methods of internal/mavproxy;
//   - HandleMessage used as a method value anywhere (a bound method value
//     escapes the whitelist boundary and can be invoked later unchecked);
//   - Proxy.Master called outside internal/core and internal/mavproxy.
package whitelistguard

import (
	"go/ast"
	"go/types"
	"strings"

	"androne/internal/analysis/framework"
)

// Analyzer is the whitelistguard analyzer.
var Analyzer = &framework.Analyzer{
	Name: "whitelistguard",
	Doc: "restrict MAVLink dispatch into the flight controller to the " +
		"whitelist-checked VFC path and the provider master channel",
	Run: run,
}

const (
	flightPath   = "androne/internal/flight"
	mavproxyPath = "androne/internal/mavproxy"
)

// masterAllowed are packages permitted to obtain the unrestricted master
// channel: the VDC/flight planner, the proxy itself, and the scenario
// harness, which plays the cloud flight planner's trusted role (takeoff,
// transit routing, deterministic fault injection).
var masterAllowed = []string{"androne/internal/core", mavproxyPath, "androne/internal/simharness"}

func run(pass *framework.Pass) error {
	pkgPath := pass.Pkg.Path()
	if strings.HasSuffix(pkgPath, flightPath) {
		return nil // the controller may call its own dispatch internals
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok {
				return true
			}
			switch {
			case framework.IsMethod(fn, flightPath, "Controller", "HandleMessage"):
				checkDispatch(pass, file, sel, pkgPath)
			case framework.IsMethod(fn, mavproxyPath, "Proxy", "Master"):
				if !framework.HasAnyPkgSuffix(pass.Pkg, masterAllowed) {
					pass.Reportf(sel.Pos(),
						"Proxy.Master hands out the unrestricted MAVLink channel and is reserved for %s; tenant traffic goes through a VFC",
						strings.Join(masterAllowed, ", "))
				}
			}
			return true
		})
	}
	return nil
}

// checkDispatch validates one reference to Controller.HandleMessage.
func checkDispatch(pass *framework.Pass, file *ast.File, sel *ast.SelectorExpr, pkgPath string) {
	if !isCalled(file, sel) {
		pass.Reportf(sel.Pos(),
			"flight.Controller.HandleMessage captured as a method value escapes the VFC whitelist boundary; call it only inside the checked Send paths")
		return
	}
	if !strings.HasSuffix(pkgPath, mavproxyPath) {
		pass.Reportf(sel.Pos(),
			"flight.Controller.HandleMessage bypasses the VFC whitelist; send through (*mavproxy.VFC).Send or the provider's Master channel")
		return
	}
	fd := pass.EnclosingFunc(sel.Pos())
	if fd == nil || fd.Name.Name != "Send" {
		pass.Reportf(sel.Pos(),
			"within mavproxy, flight.Controller.HandleMessage may only be invoked from the Send methods that enforce the whitelist, not %s",
			funcName(fd))
		return
	}
	if recv := framework.ReceiverTypeName(fd); recv != "Master" && recv != "VFC" {
		pass.Reportf(sel.Pos(),
			"flight.Controller.HandleMessage may only be dispatched from (*Master).Send or (*VFC).Send, not (%s).Send", recv)
	}
}

// isCalled reports whether sel appears as the callee of a call expression
// (as opposed to a bound method value).
func isCalled(file *ast.File, sel *ast.SelectorExpr) bool {
	called := false
	ast.Inspect(file, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && ast.Unparen(call.Fun) == sel {
			called = true
		}
		return !called
	})
	return called
}

func funcName(fd *ast.FuncDecl) string {
	if fd == nil {
		return "package scope"
	}
	return fd.Name.Name
}
