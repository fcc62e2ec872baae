// Package framework is a minimal, dependency-free re-implementation of the
// golang.org/x/tools/go/analysis vocabulary: an Analyzer bundles a named
// check, a Pass hands it one type-checked package, and diagnostics are
// reported through the Pass. The build environment vendors no external
// modules, so androne-vet carries its own framework; the API mirrors
// go/analysis closely enough that analyzers port in either direction with
// mechanical edits.
//
// Suppression: a diagnostic whose source line carries a comment of the form
//
//	//vet:allow <analyzer-name> [reason]
//
// is dropped by the drivers (cmd/androne-vet and the analysistest harness).
// Suppressions are for documented, reviewed exceptions only.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and flags. It must be a
	// valid Go identifier.
	Name string
	// Doc is the analyzer's documentation: a one-line summary, a blank
	// line, then details.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// Pass provides one analyzer run over one package with the inputs it needs
// and a sink for diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Program is the whole-session view shared by every pass: all loaded
	// packages, the call graph, the fact store. Interprocedural analyzers
	// compute whole-program results once (memoized on the Program) and
	// report only the diagnostics positioned inside this pass's package, so
	// running once per package never duplicates findings.
	Program *Program

	// Report receives each diagnostic. Drivers install this.
	Report func(Diagnostic)
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// ShortPos renders pos as "file.go:line" for citing another site in a
// message.
func (p *Pass) ShortPos(pos token.Pos) string {
	if !pos.IsValid() {
		return "?"
	}
	at := p.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(at.Filename), at.Line)
}

// EnclosingFunc returns the function declaration enclosing pos within the
// pass' files, or nil. Analyzers use it to scope rules to specific methods.
func (p *Pass) EnclosingFunc(pos token.Pos) *ast.FuncDecl {
	for _, f := range p.Files {
		if f.Pos() > pos || f.End() < pos {
			continue
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos < fd.End() {
				return fd
			}
		}
	}
	return nil
}

// ReceiverTypeName returns the name of fd's receiver base type ("" for
// plain functions), with any pointer indirection stripped.
func ReceiverTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	switch tt := t.(type) {
	case *ast.Ident:
		return tt.Name
	case *ast.IndexExpr: // generic receiver
		if id, ok := tt.X.(*ast.Ident); ok {
			return id.Name
		}
	}
	return ""
}
