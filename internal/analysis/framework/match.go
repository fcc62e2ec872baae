package framework

import (
	"go/ast"
	"go/types"
	"strings"
)

// The androne guard analyzers identify program elements by import-path
// suffix rather than exact path, so fixture packages placed under
// testdata/src/androne/... match the same policies as the real tree.

// HasPkgSuffix reports whether pkg's import path ends in suffix.
func HasPkgSuffix(pkg *types.Package, suffix string) bool {
	return pkg != nil && strings.HasSuffix(pkg.Path(), suffix)
}

// HasAnyPkgSuffix reports whether pkg's import path ends in any of
// suffixes.
func HasAnyPkgSuffix(pkg *types.Package, suffixes []string) bool {
	for _, s := range suffixes {
		if HasPkgSuffix(pkg, s) {
			return true
		}
	}
	return false
}

// Callee statically resolves e — a call's Fun, or an expression used as a
// function value — to the declared function or method it denotes, or nil.
// A method called through an interface resolves to the interface method.
func Callee(info *types.Info, e ast.Expr) *types.Func {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[e].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok && sel.Kind() == types.MethodVal {
			return sel.Obj().(*types.Func)
		}
		fn, _ := info.Uses[e.Sel].(*types.Func)
		return fn
	}
	return nil
}

// IsMethod reports whether fn is the method recvType.name declared in a
// package whose import path ends in pkgSuffix, with pointer indirection on
// the receiver stripped.
func IsMethod(fn *types.Func, pkgSuffix, recvType, name string) bool {
	if fn == nil || fn.Name() != name || !HasPkgSuffix(fn.Pkg(), pkgSuffix) {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return IsNamed(sig.Recv().Type(), pkgSuffix, recvType)
}

// IsFunc reports whether fn is the package-level function pkgSuffix.name.
func IsFunc(fn *types.Func, pkgSuffix, name string) bool {
	if fn == nil || fn.Name() != name || !HasPkgSuffix(fn.Pkg(), pkgSuffix) {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// IsNamed reports whether t, after stripping one level of pointer, is the
// named type pkgSuffix.name.
func IsNamed(t types.Type, pkgSuffix, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && HasPkgSuffix(obj.Pkg(), pkgSuffix)
}

// MethodRecv returns the receiver's named base type of fn, or nil for
// plain functions.
func MethodRecv(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}
