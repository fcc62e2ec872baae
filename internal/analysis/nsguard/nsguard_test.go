// Package nsguard_test is the fixture suite for callguard's Binder
// namespace rows: namespace plumbing, the publish ioctls and AddService
// transactions. Every row has at least one // want in testdata/src/nsbad.
package nsguard_test

import (
	"testing"

	"androne/internal/analysis/analysistest"
	"androne/internal/analysis/callguard"
)

func TestNSGuard(t *testing.T) {
	analysistest.Run(t, "testdata", callguard.Analyzer,
		"androne/internal/binder", // the driver itself: exempt
		"androne/internal/android",
		"androne/internal/devcon",
		"nsbad",
	)
}
