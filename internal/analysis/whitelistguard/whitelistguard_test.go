// Package whitelistguard_test is the fixture suite for callguard's VFC
// whitelist rows: raw MAVLink dispatch into the flight controller and the
// unrestricted master channel. Every row has at least one // want in
// testdata/src/wlbad.
package whitelistguard_test

import (
	"testing"

	"androne/internal/analysis/analysistest"
	"androne/internal/analysis/callguard"
)

func TestWhitelistGuard(t *testing.T) {
	analysistest.Run(t, "testdata", callguard.Analyzer,
		"androne/internal/flight", // the controller itself: exempt
		"androne/internal/mavproxy",
		"androne/internal/core",
		"wlbad",
	)
}
