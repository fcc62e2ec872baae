package main

import (
	"testing"

	"androne/internal/analysis/load"
)

// TestRepoClean runs the full androne-vet suite over the repository and
// requires zero findings and zero stale suppressions — the same gate CI
// applies, enforced from go test so a plain `go test ./...` also catches
// regressions.
func TestRepoClean(t *testing.T) {
	pkgs, err := load.Packages(".")
	if err != nil {
		t.Fatalf("loading repo: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; pattern resolution is broken", len(pkgs))
	}
	findings, stats, err := load.Run(pkgs, suite)
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
	// Every //vet:allow in the tree must still be earning its keep: a
	// suppression nothing fires on would silently mask the next regression.
	for _, s := range stats.StaleAllows {
		t.Errorf("stale //vet:allow %s at %s:%d: the analyzer no longer fires on this line",
			s.Analyzer, s.Pos.Filename, s.Pos.Line)
	}
	if len(stats.Timings) != len(suite) {
		t.Errorf("got %d timing entries, want one per analyzer (%d)", len(stats.Timings), len(suite))
	}
	// detguard/hotpath force the shared effect engine, so a full-suite run
	// must surface its cache stats.
	if stats.Effects == nil {
		t.Error("no effect-summary stats; the contract analyzers did not compute summaries")
	} else if stats.Effects.Functions == 0 || stats.Effects.Passes == 0 {
		t.Errorf("implausible effect stats: %+v", *stats.Effects)
	}
}

// stalePkg is a clean package whose only //vet:allow suppresses nothing.
const stalePkg = "./cmd/androne-vet/testdata/stale"

// TestStaleAllowReported pins stale-suppression detection: the suite
// finds nothing in the package, and reports its one dead //vet:allow.
func TestStaleAllowReported(t *testing.T) {
	pkgs, err := load.Packages(".", stalePkg)
	if err != nil {
		t.Fatalf("loading %s: %v", stalePkg, err)
	}
	findings, stats, err := load.Run(pkgs, suite)
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	for _, f := range findings {
		t.Errorf("unexpected finding: %s", f)
	}
	if len(stats.StaleAllows) != 1 {
		t.Fatalf("got %d stale allows, want 1: %+v", len(stats.StaleAllows), stats.StaleAllows)
	}
	if s := stats.StaleAllows[0]; s.Analyzer != "locksafe" || s.Pos.Line != 7 {
		t.Errorf("stale allow = %s at line %d, want locksafe at line 7", s.Analyzer, s.Pos.Line)
	}
}

// TestRunFailsOnStaleAllow pins the driver's gate: one default run exits
// 1 on a stale suppression even though there are no findings.
func TestRunFailsOnStaleAllow(t *testing.T) {
	if got := run([]string{stalePkg}); got != 1 {
		t.Errorf("run exit status = %d, want 1", got)
	}
}
