package core

import (
	"errors"
	"testing"
)

// TestExecuteRouteCatchesBrokenMeter flies a virtual drone with a 2 s
// allotment and no app to end its dwell. With a working meter the dwell
// ends at exhaustion and the flight passes its checks; with the meter
// broken (VDC.BreakMeter) the drone keeps flight control past the grace
// window, and ExecuteRoute fails with ErrInvariant and an allotment-guard
// violation in the report.
func TestExecuteRouteCatchesBrokenMeter(t *testing.T) {
	for _, broken := range []bool{false, true} {
		d := newTestDrone(t)
		if broken {
			d.VDC.BreakMeter()
		}
		def := defWith("vd1", 1)
		def.MaxDuration = 2
		if _, err := d.VDC.Create(def); err != nil {
			t.Fatal(err)
		}
		report, err := d.ExecuteRoute(routeFor(t, d, def), NewCloudEnv())
		if !broken {
			if err != nil || len(report.Violations) != 0 {
				t.Fatalf("working meter: err %v, violations %v", err, report.Violations)
			}
			continue
		}
		if !errors.Is(err, ErrInvariant) {
			t.Fatalf("broken meter: err %v, want ErrInvariant", err)
		}
		if report == nil {
			t.Fatal("broken meter: no report")
		}
		found := false
		for _, v := range report.Violations {
			found = found || (v.Checker == "allotment-guard" && v.Drone == "vd1")
		}
		if !found {
			t.Fatalf("broken meter: violations %v, want allotment-guard on vd1", report.Violations)
		}
	}
}
