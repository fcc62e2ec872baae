package load_test

import (
	"strings"
	"testing"

	"androne/internal/analysis/load"
)

// TestLoaderTypeInfo spot-checks that loaded packages carry the type
// information the analyzers rely on.
func TestLoaderTypeInfo(t *testing.T) {
	pkgs, err := load.Packages(".", "./internal/flight")
	if err != nil {
		t.Fatalf("loading: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	p := pkgs[0]
	if !strings.HasSuffix(p.PkgPath, "internal/flight") {
		t.Fatalf("PkgPath = %q", p.PkgPath)
	}
	if len(p.Syntax) == 0 || p.Types == nil || p.TypesInfo == nil {
		t.Fatal("package missing syntax or type info")
	}
	if len(p.TypesInfo.Selections) == 0 {
		t.Fatal("no selections recorded; interface-dispatch checks would be blind")
	}
}
