package lockorder_test

import (
	"testing"

	"androne/internal/analysis/analysistest"
	"androne/internal/analysis/lockorder"
)

// TestLockOrder covers the deadlock rules in both directions: every
// sabotaged site in lockbad (inconsistent pair, three-lock cycle with a
// transitive witness, rank violations, malformed directives) must be
// convicted, the TryLock and //vet:allow sites must stay silent, and the
// clean fixture must produce nothing. An unmatched want fails the test,
// so this doubles as CI's sabotage smoke assertion.
func TestLockOrder(t *testing.T) {
	analysistest.Run(t, "testdata", lockorder.Analyzer,
		"lockbad",
		"lockclean",
	)
}

// TestLockOrderCrossPackage proves the acquisition-order graph is global:
// lockab and lockb each nest the two packages' exported mutexes in
// opposite orders, and neither package alone is wrong.
func TestLockOrderCrossPackage(t *testing.T) {
	analysistest.Run(t, "testdata", lockorder.Analyzer,
		"lockab",
		"lockb",
	)
}

// TestLockOrderCriticalPath proves the flight-critical blocking contract:
// hot-path acquisitions of tenant-shared locks are convicted (binder
// Handler entries and portal HTTP handlers both count as tenant), while
// hot-only locks and a sanctioned hot-path lock (the VFC's) stay silent.
func TestLockOrderCriticalPath(t *testing.T) {
	analysistest.Run(t, "testdata", lockorder.Analyzer,
		"critbad",
		"androne/internal/mavproxy",
	)
}
