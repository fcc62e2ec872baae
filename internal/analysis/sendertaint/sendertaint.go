// Package sendertaint enforces the AnDrone identity rule (paper §4.2):
// the identity consumed by a permission decision — the uid handed to
// ActivityManager.CheckPermission, the container name handed to the VDC
// policy's AllowDevice — must originate from the Binder-stamped
// transaction sender (binder.Txn.Sender, stamped by the driver), never
// from request payload bytes or from constants. A service that reads "who
// is asking" out of the request body lets any tenant impersonate any
// other.
//
// The analysis runs the framework's forward taint engine over every
// function: txn.Sender chains carry a sender origin, txn.Data (and
// anything unmarshalled from it) carries a payload origin, literals carry
// a constant origin, and parameters carry per-parameter bits. A fixpoint
// over the call graph lifts the obligation through helpers: a function
// whose parameter flows into a decision's identity argument becomes a
// decision itself at every call site, so laundering a payload uid through
// a wrapper does not hide it.
//
// Reports fire where a payload-derived value — or a pure constant outside
// test code — reaches an identity argument. Reviewed exceptions carry
// //vet:allow sendertaint with a reason.
package sendertaint

import (
	"go/ast"
	"go/token"
	"go/types"

	"androne/internal/analysis/framework"
)

// Analyzer is the sendertaint analyzer.
var Analyzer = &framework.Analyzer{
	Name: "sendertaint",
	Doc: "identity used in permission decisions must come from the " +
		"Binder-stamped sender, not request payloads or constants",
	Run: run,
}

// Origin bits: three provenances plus one bit per tracked parameter.
const (
	fromSender framework.Origin = 1 << iota
	fromPayload
	fromConst
)

const maxParams = 24

func paramBit(i int) framework.Origin {
	if i < 0 || i >= maxParams {
		return 0
	}
	return framework.Origin(8) << i
}

// identityArgs returns the identity-argument positions of fn when it is a
// decision primitive, and whether it is one.
func identityArgs(fn *types.Func) ([]int, bool) {
	switch {
	case fn == nil:
		return nil, false
	case framework.IsMethod(fn, "androne/internal/android", "ActivityManager", "CheckPermission"),
		framework.IsFunc(fn, "androne/internal/android", "CheckPermissionData"):
		return []int{1}, true // (perm, uid)
	case fn.Name() == "AllowDevice":
		return []int{0}, true // (container, kind)
	}
	return nil, false
}

type finding struct {
	pos token.Pos
	pkg *types.Package
	msg string
}

func run(pass *framework.Pass) error {
	if pass.Program == nil {
		return nil
	}
	findings := pass.Program.Memo("sendertaint", func() any {
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
	// Fixpoint over parameter obligations: obligated[fn] holds the
	// parameter indices that flow into some decision's identity argument.
	obligated := make(map[*types.Func]map[int]bool)
	for changed := true; changed; {
		changed = false
		for _, src := range prog.Funcs() {
			res := flowFor(src)
			forEachDecision(src, obligated, func(call *ast.CallExpr, argIdx int, _ *types.Func) {
				if argIdx >= len(call.Args) {
					return
				}
				o := res.Origin(call.Args[argIdx])
				sig := src.Fn.Type().(*types.Signature)
				for i := 0; i < sig.Params().Len(); i++ {
					if !o.Has(paramBit(i)) {
						continue
					}
					if obligated[src.Fn] == nil {
						obligated[src.Fn] = make(map[int]bool)
					}
					if !obligated[src.Fn][i] {
						obligated[src.Fn][i] = true
						changed = true
					}
				}
			})
		}
	}

	var findings []finding
	seen := make(map[token.Pos]bool)
	for _, src := range prog.Funcs() {
		res := flowFor(src)
		forEachDecision(src, obligated, func(call *ast.CallExpr, argIdx int, callee *types.Func) {
			if argIdx >= len(call.Args) || seen[call.Args[argIdx].Pos()] {
				return
			}
			o := res.Origin(call.Args[argIdx])
			var why string
			switch {
			case o.Has(fromPayload):
				why = "derives from request payload bytes"
			case o == fromConst:
				why = "is a constant"
			default:
				return
			}
			_, primitive := identityArgs(callee)
			role := "permission decision"
			if !primitive {
				role = "helper forwarding to a permission decision"
			}
			seen[call.Args[argIdx].Pos()] = true
			findings = append(findings, finding{
				pos: call.Args[argIdx].Pos(),
				pkg: src.Pkg.Pkg,
				msg: "identity argument of " + callee.Name() + " (" + role + ") " + why +
					"; permission decisions must use the Binder-stamped sender " +
					"(suppress with //vet:allow sendertaint <reason>)",
			})
		})
	}
	return findings
}

// forEachDecision visits every call in src whose callee consumes an
// identity argument — the primitives plus every obligated helper — unless
// src itself is a primitive (a primitive's own body defines the decision,
// it does not consume one).
func forEachDecision(src *framework.FuncSource, obligated map[*types.Func]map[int]bool, f func(*ast.CallExpr, int, *types.Func)) {
	if _, primitive := identityArgs(src.Fn); primitive {
		return
	}
	info := src.Pkg.Info
	ast.Inspect(src.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := framework.Callee(info, call.Fun)
		if callee == nil {
			return true
		}
		if idx, ok := identityArgs(callee); ok {
			for _, i := range idx {
				f(call, i, callee)
			}
			return true
		}
		for i := range obligated[callee] {
			f(call, i, callee)
		}
		return true
	})
	return
}

// flowFor runs the taint engine over src: parameters are seeded with their
// parameter bit (Sender-typed parameters also with the sender origin), and
// the Source classifier stamps txn.Sender, txn.Data, and literals.
func flowFor(src *framework.FuncSource) *framework.FlowResult {
	info := src.Pkg.Info
	flow := &framework.Flow{
		Info: info,
		Source: func(e ast.Expr) framework.Origin {
			switch e := e.(type) {
			case *ast.SelectorExpr:
				tv, ok := info.Types[e.X]
				if !ok || !framework.IsNamed(tv.Type, "androne/internal/binder", "Txn") {
					return 0
				}
				switch e.Sel.Name {
				case "Sender":
					return fromSender
				case "Data":
					return fromPayload
				}
			case *ast.BasicLit:
				return fromConst
			}
			return 0
		},
	}
	seed := make(map[types.Object]framework.Origin)
	sig := src.Fn.Type().(*types.Signature)
	for i := 0; i < sig.Params().Len(); i++ {
		p := sig.Params().At(i)
		o := paramBit(i)
		if framework.IsNamed(p.Type(), "androne/internal/binder", "Sender") {
			o |= fromSender
		}
		seed[p] = o
	}
	return flow.Analyze(src.Decl, seed)
}
