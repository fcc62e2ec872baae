package flight

import (
	"math"
	"testing"

	"androne/internal/geo"
)

// TestAEDMonitorMatchesLog is the differential oracle for the streaming
// AED: two identically seeded vehicles fly the same route, one recording a
// full Log and one folding into an AEDMonitor, and the monitor's verdict
// must equal AnalyzeAED over the log bit for bit at every checkpoint. The
// faulted flight (gusty wind, then a dead motor that tumbles the drone
// into the ground) must fail AED, so the excursion path is exercised too.
func TestAEDMonitorMatchesLog(t *testing.T) {
	for _, tc := range []struct {
		name     string
		fault    bool
		wantPass bool
	}{
		{"calm", false, true},
		{"wind-and-motor-fault", true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			log, mon := NewLog(), NewAEDMonitor()
			vl := NewVehicle(home, "aed-diff", WithLog(log))
			vm := NewVehicle(home, "aed-diff", WithAEDMonitor(mon))
			check := func(when string) AEDResult {
				t.Helper()
				want, got := AnalyzeAED(log), mon.Result()
				if math.Float64bits(got.MaxDivergenceDeg) != math.Float64bits(want.MaxDivergenceDeg) ||
					math.Float64bits(got.LongestExcursionS) != math.Float64bits(want.LongestExcursionS) ||
					got.Pass != want.Pass {
					t.Fatalf("%s: monitor %+v, AnalyzeAED %+v", when, got, want)
				}
				if vl.Sim.Position() != vm.Sim.Position() {
					t.Fatalf("%s: the vehicles diverged", when)
				}
				return got
			}
			check("before any sample")
			vl.StepSeconds(0.1)
			vm.StepSeconds(0.1)
			for _, v := range []*Vehicle{vl, vm} {
				takeoffTo(t, v, 12)
				if tc.fault {
					v.Sim.SetWind(4, -2, 1.5)
				}
				target := geo.Position{LatLon: geo.OffsetNE(home.LatLon, 30, -20), Alt: 15}
				if err := v.Controller.GotoPosition(target, 0); err != nil {
					t.Fatal(err)
				}
			}
			check("after takeoff")
			for _, v := range []*Vehicle{vl, vm} {
				v.StepSeconds(8)
			}
			check("mid-route")
			if tc.fault {
				for _, v := range []*Vehicle{vl, vm} {
					v.Sim.SetMotorHealth(1, 0)
				}
			}
			for _, v := range []*Vehicle{vl, vm} {
				v.StepSeconds(12)
			}
			res := check("end of flight")
			t.Logf("AED %+v over %d samples", res, log.Len())
			if res.Pass != tc.wantPass {
				t.Fatalf("AED pass = %v, want %v (%+v)", res.Pass, tc.wantPass, res)
			}
		})
	}
}
