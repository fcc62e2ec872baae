package callguard

import (
	"go/types"
	"regexp"
	"sort"
	"strings"
	"testing"

	"androne/internal/analysis/analysistest"
	"androne/internal/analysis/framework"
	"androne/internal/analysis/load"
)

// TestCallGuard requires every row of the table to report at least one
// unsuppressed finding in the fixture suites of ../nsguard (Binder rows)
// and ../whitelistguard (VFC rows). Those suites match findings to their
// // want lines, so deleting any row fails one of them, and a new row with
// no fixture line fails here.
func TestCallGuard(t *testing.T) {
	patterns := make([]*regexp.Regexp, len(rules))
	for i, r := range rules {
		before, after, _ := strings.Cut(r.msg, "%s")
		patterns[i] = regexp.MustCompile("^" + regexp.QuoteMeta(before) + ".*" + regexp.QuoteMeta(after) + "$")
	}
	fired := make([]bool, len(rules))
	recorder := &framework.Analyzer{Name: Analyzer.Name, Doc: Analyzer.Doc, Run: func(pass *framework.Pass) error {
		report := pass.Report
		pass.Report = func(d framework.Diagnostic) {
			report(d)
			if len(load.Filter([]load.Finding{{Analyzer: Analyzer.Name, Pos: pass.Fset.Position(d.Pos), Message: d.Message}})) == 0 {
				return // on a //vet:allow line, so no // want pins it
			}
			var rows []int
			for i, p := range patterns {
				if p.MatchString(d.Message) {
					rows = append(rows, i)
				}
			}
			if len(rows) != 1 {
				t.Errorf("finding %q matches rows %v, want exactly one", d.Message, rows)
				return
			}
			fired[rows[0]] = true
		}
		return run(pass)
	}}
	analysistest.Run(t, "../nsguard/testdata", recorder,
		"androne/internal/binder", "androne/internal/android", "androne/internal/devcon", "nsbad")
	analysistest.Run(t, "../whitelistguard/testdata", recorder,
		"androne/internal/flight", "androne/internal/mavproxy", "androne/internal/core", "wlbad")
	for i, r := range rules {
		if !fired[i] {
			t.Errorf("row %d (%s.(%s).%s: %q) reports nothing in the fixtures", i, r.api.pkg, r.api.recv, r.api.name, r.msg)
		}
	}
}

// TestRulesResolve loads every package the policy names from the
// repository, as androne-vet does, and requires each rule's method, code
// constant and named callers to be declared there: a renamed method would
// otherwise leave its rule guarding nothing.
func TestRulesResolve(t *testing.T) {
	seen := make(map[string]bool)
	for _, r := range rules {
		seen[r.api.pkg] = true
		for _, c := range r.callers {
			seen[c.pkg] = true
		}
	}
	var paths []string
	for p := range seen {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	pkgs, err := load.Packages(".", paths...)
	if err != nil {
		t.Fatalf("loading %v: %v", paths, err)
	}
	byPath := make(map[string]*types.Package)
	for _, p := range pkgs {
		byPath[p.PkgPath] = p.Types
	}
	for _, r := range rules {
		fn := declared(byPath[r.api.pkg], r.api)
		if fn == nil || r.api.recv == "" {
			t.Errorf("guarded method %s.(%s).%s is not declared", r.api.pkg, r.api.recv, r.api.name)
			continue
		}
		if r.code != "" {
			if _, ok := fn.Pkg().Scope().Lookup(r.code).(*types.Const); !ok {
				t.Errorf("%s: code constant %s is not declared in %s", r.api.name, r.code, r.api.pkg)
			}
			if n := fn.Type().(*types.Signature).Params().Len(); r.arg >= n {
				t.Errorf("%s: code argument %d, but it takes %d", r.api.name, r.arg, n)
			}
		}
		for _, c := range r.callers {
			if c.name != "" && declared(byPath[c.pkg], c) == nil {
				t.Errorf("%s: caller %s.(%s).%s is not declared", r.api.name, c.pkg, c.recv, c.name)
			}
		}
	}
}

// declared returns the function or method m names in pkg, or nil; an empty
// m.recv matches a plain function or a method of any receiver.
func declared(pkg *types.Package, m member) *types.Func {
	if pkg == nil {
		return nil
	}
	scope := pkg.Scope()
	if fn, ok := scope.Lookup(m.name).(*types.Func); ok && m.recv == "" {
		return fn
	}
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || m.recv != "" && name != m.recv {
			continue
		}
		if named, ok := tn.Type().(*types.Named); ok {
			for i := 0; i < named.NumMethods(); i++ {
				if named.Method(i).Name() == m.name {
					return named.Method(i)
				}
			}
		}
	}
	return nil
}
