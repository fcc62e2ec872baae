// Package errflow enforces that errors from security- and safety-relevant
// calls are never silently dropped. The AnDrone enforcement chain — binder
// transactions carrying permission checks, geofence verdicts, whitelist
// Send paths, VDR save/restore, flight-mode commands — signals denial and
// failure through returned errors; a dropped error there is a silently
// skipped check.
//
// The analyzer is interprocedural: a helper that merely forwards or wraps
// a risky callee's error (directly, through an assigned variable, or via
// fmt.Errorf("...%w", err)) becomes risky itself, so dropping the helper's
// result is the same defect one level removed. Wrapper detection runs over
// the whole Program once (framework.Program + the dataflow engine) and
// violations are reported per package.
//
// A violation is a risky call whose error lands nowhere: used as a bare
// expression statement, assigned to the blank identifier in the error
// position, or issued in a go/defer statement where the result is
// unobservable. Reviewed exceptions carry //vet:allow errflow with a
// reason.
package errflow

import (
	"go/ast"
	"go/types"

	"androne/internal/analysis/framework"
)

// Analyzer is the errflow analyzer.
var Analyzer = &framework.Analyzer{
	Name: "errflow",
	Doc: "security-relevant errors (permission checks, geofence verdicts, " +
		"binder transactions, VDR save/restore, flight commands) must be " +
		"checked or propagated, even through wrapper helpers",
	Run: run,
}

// originRisky marks values derived from a risky call's results.
const originRisky framework.Origin = 1

// seedLabel names the protected primitive fn stands for, or "" if fn is
// not a seed. Matching is by package suffix + receiver + name so the
// analysistest fixtures at testdata/src/androne/... hit the same table.
func seedLabel(fn *types.Func) string {
	if fn == nil {
		return ""
	}
	type m struct{ pkg, recv, name, label string }
	for _, s := range []m{
		{"androne/internal/binder", "Proc", "Transact", "binder transaction"},
		{"androne/internal/binder", "Proc", "PublishToAllNS", "PUBLISH_TO_ALL_NS ioctl"},
		{"androne/internal/binder", "Proc", "PublishToDevCon", "PUBLISH_TO_DEV_CON ioctl"},
		{"androne/internal/android", "Client", "Call", "binder service call"},
		{"androne/internal/geo", "Fence", "Check", "geofence verdict"},
		{"androne/internal/mavproxy", "Proxy", "Activate", "VFC activation"},
		{"androne/internal/mavproxy", "Proxy", "Deactivate", "VFC deactivation"},
		{"androne/internal/mavproxy", "Proxy", "SetWhitelist", "whitelist update"},
		{"androne/internal/mavproxy", "VFC", "Send", "whitelist-checked dispatch"},
		{"androne/internal/mavproxy", "Master", "Send", "master-channel dispatch"},
		{"androne/internal/core", "VDC", "Save", "VDR save"},
		{"androne/internal/core", "VDC", "Restore", "VDR restore"},
		{"androne/internal/flight", "Controller", "SetModeNum", "flight-mode command"},
		{"androne/internal/flight", "Controller", "GotoPosition", "guided-flight command"},
	} {
		if framework.IsMethod(fn, s.pkg, s.recv, s.name) {
			return s.label
		}
	}
	// Any permission-check helper by convention, wherever it lives.
	if fn.Name() == "checkPermission" && len(errorResults(fn)) > 0 {
		return "permission check"
	}
	return ""
}

// errorResults returns the indices of fn's results whose type is error.
func errorResults(fn *types.Func) []int {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	errType := types.Universe.Lookup("error").Type()
	var out []int
	for i := 0; i < sig.Results().Len(); i++ {
		if types.Identical(sig.Results().At(i).Type(), errType) {
			out = append(out, i)
		}
	}
	return out
}

// wrappers computes, once per Program, the helpers whose returned error
// derives from a risky callee: map from function to the label of the
// primitive it forwards.
func wrappers(prog *framework.Program) map[*types.Func]string {
	return prog.Memo("errflow", func() any {
		w := make(map[*types.Func]string)
		// Fixpoint: riskiness flows up through chains of wrappers.
		for changed := true; changed; {
			changed = false
			for _, src := range prog.Funcs() {
				if _, done := w[src.Fn]; done || seedLabel(src.Fn) != "" {
					continue
				}
				if lbl := forwardsRisky(src, w); lbl != "" {
					w[src.Fn] = lbl
					changed = true
				}
			}
		}
		return w
	}).(map[*types.Func]string)
}

// riskyLabel resolves the label for a callee: a seed primitive or a known
// wrapper. The wrapper's label keeps the underlying primitive's name so
// reports point at the real invariant.
func riskyLabel(fn *types.Func, w map[*types.Func]string) string {
	if lbl := seedLabel(fn); lbl != "" {
		return lbl
	}
	if lbl := w[fn]; lbl != "" {
		return "wraps " + lbl
	}
	return ""
}

// forwardsRisky reports (by label) whether src returns an error derived
// from a risky call.
func forwardsRisky(src *framework.FuncSource, w map[*types.Func]string) string {
	errIdx := errorResults(src.Fn)
	if len(errIdx) == 0 {
		return ""
	}
	info := src.Pkg.Info
	// Pre-resolve which calls in the body are risky, and remember the first
	// one's label for the report.
	label := ""
	riskyCalls := make(map[*ast.CallExpr]bool)
	ast.Inspect(src.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if lbl := riskyLabel(framework.Callee(info, call.Fun), w); lbl != "" {
			riskyCalls[call] = true
			if label == "" {
				label = lbl
			}
		}
		return true
	})
	if len(riskyCalls) == 0 {
		return ""
	}
	flow := &framework.Flow{
		Info: info,
		Call: func(call *ast.CallExpr, args []framework.Origin) framework.Origin {
			var o framework.Origin
			for _, a := range args {
				o |= a
			}
			if riskyCalls[call] {
				o |= originRisky
			}
			return o
		},
	}
	res := flow.Analyze(src.Decl, nil)

	sig := src.Fn.Type().(*types.Signature)
	risky := false
	inspectOwnReturns(src.Decl.Body, func(ret *ast.ReturnStmt) {
		switch {
		case len(ret.Results) == sig.Results().Len():
			for _, i := range errIdx {
				if res.Origin(ret.Results[i]).Has(originRisky) {
					risky = true
				}
			}
		case len(ret.Results) == 1 && sig.Results().Len() > 1:
			// return f(...) forwarding a tuple.
			if res.Origin(ret.Results[0]).Has(originRisky) {
				risky = true
			}
		case len(ret.Results) == 0:
			// Naked return of named results.
			for _, i := range errIdx {
				if res.VarOrigin(sig.Results().At(i)).Has(originRisky) {
					risky = true
				}
			}
		}
	})
	if !risky {
		return ""
	}
	if lbl, ok := stripWraps(label); ok {
		return lbl
	}
	return label
}

// stripWraps collapses chains ("wraps wraps X" -> "X") so wrapper labels
// stay readable no matter the depth.
func stripWraps(label string) (string, bool) {
	const p = "wraps "
	stripped := false
	for len(label) >= len(p) && label[:len(p)] == p {
		label = label[len(p):]
		stripped = true
	}
	return label, stripped
}

// inspectOwnReturns visits the return statements of body, skipping nested
// func literals (their returns belong to the literal).
func inspectOwnReturns(body *ast.BlockStmt, f func(*ast.ReturnStmt)) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			f(n)
		}
		return true
	})
}

func run(pass *framework.Pass) error {
	var w map[*types.Func]string
	if pass.Program != nil {
		w = wrappers(pass.Program)
	}
	info := pass.TypesInfo
	report := func(call *ast.CallExpr, lbl, how string) {
		fn := framework.Callee(info, call.Fun)
		pass.Reportf(call.Pos(),
			"error from %s (%s) is %s; check it, propagate it, or suppress with //vet:allow errflow <reason>",
			fn.Name(), lbl, how)
	}
	checkCall := func(call *ast.CallExpr, how string) {
		if lbl := riskyLabel(framework.Callee(info, call.Fun), w); lbl != "" {
			report(call, lbl, how)
		}
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					checkCall(call, "discarded")
				}
			case *ast.GoStmt:
				checkCall(n.Call, "unobservable in a go statement")
			case *ast.DeferStmt:
				checkCall(n.Call, "unobservable in a defer statement")
			case *ast.AssignStmt:
				checkAssign(pass, w, n)
			}
			return true
		})
	}
	return nil
}

// checkAssign flags risky calls whose error result is assigned to blank.
func checkAssign(pass *framework.Pass, w map[*types.Func]string, n *ast.AssignStmt) {
	info := pass.TypesInfo
	blank := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && id.Name == "_"
	}
	flag := func(call *ast.CallExpr, lbl string) {
		fn := framework.Callee(info, call.Fun)
		pass.Reportf(call.Pos(),
			"error from %s (%s) is assigned to _; check it, propagate it, or suppress with //vet:allow errflow <reason>",
			fn.Name(), lbl)
	}
	if len(n.Rhs) == 1 {
		call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return
		}
		fn := framework.Callee(info, call.Fun)
		lbl := riskyLabel(fn, w)
		if lbl == "" {
			return
		}
		if idx := errorResults(fn); len(idx) > 0 && len(n.Lhs) == maxResult(fn) {
			for _, i := range idx {
				if blank(n.Lhs[i]) {
					flag(call, lbl)
					return
				}
			}
		}
		return
	}
	if len(n.Rhs) != len(n.Lhs) {
		return
	}
	for i, rhs := range n.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok {
			continue
		}
		fn := framework.Callee(info, call.Fun)
		if lbl := riskyLabel(fn, w); lbl != "" && blank(n.Lhs[i]) {
			flag(call, lbl)
		}
	}
}

// maxResult returns fn's result count.
func maxResult(fn *types.Func) int {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return 0
	}
	return sig.Results().Len()
}
