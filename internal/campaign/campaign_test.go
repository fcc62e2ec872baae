package campaign

import (
	"errors"
	"reflect"
	"testing"

	"androne/internal/android"
	"androne/internal/core"
	"androne/internal/geo"
	"androne/internal/planner"
)

var base = geo.Position{LatLon: geo.LatLon{Lat: 43.6084298, Lon: -85.8110359}, Alt: 0}

func testConfig(t *testing.T, n int, seed string) Config {
	t.Helper()
	pcfg := planner.DefaultConfig(base)
	pcfg.FleetSize = 2
	pcfg.Iterations = 2000
	pcfg.Restarts = 2
	pcfg.Seed = seed
	return Config{
		Planner:    pcfg,
		Deliveries: RingDeliveries(n, seed, base),
		Seed:       seed,
	}
}

func TestCampaignPlannedVsDebited(t *testing.T) {
	// The happy path: every planned waypoint is flown and each route's
	// debited energy lands inside the tolerance band around its plan.
	res, err := testConfig(t, 5, "camp-ok").Run()
	if err != nil {
		t.Fatalf("campaign failed (max deviation %.2f): %v", res.MaxDeviationFrac, err)
	}
	if res.WaypointsVisited != res.WaypointsPlanned || res.WaypointsPlanned == 0 {
		t.Fatalf("visited %d of %d planned waypoints", res.WaypointsVisited, res.WaypointsPlanned)
	}
	if res.Replans != 0 {
		t.Fatalf("unexpected replans: %d", res.Replans)
	}
	for _, fr := range res.Flights {
		if fr.ActualJ <= 0 || fr.PlannedJ <= 0 {
			t.Fatalf("flight missing energy accounting: %+v", fr)
		}
	}
	t.Logf("%d flights, max deviation %.1f%%", len(res.Flights), res.MaxDeviationFrac*100)
}

func TestCampaignFaultTriggersReplan(t *testing.T) {
	// Losing a drone mid-route must re-plan the unflown remainder onto the
	// survivors and still cover every planned waypoint.
	cfg := testConfig(t, 5, "camp-fault")
	cfg.Fault = &Fault{Route: 0, AfterStops: 1}
	res, err := cfg.Run()
	if err != nil {
		t.Fatalf("faulted campaign failed: %v", err)
	}
	if res.Replans != 1 {
		t.Fatalf("replans = %d, want 1", res.Replans)
	}
	if res.WaypointsVisited != res.WaypointsPlanned {
		t.Fatalf("visited %d of %d planned waypoints after replan",
			res.WaypointsVisited, res.WaypointsPlanned)
	}
	var aborted, replanned int
	for _, fr := range res.Flights {
		if fr.Aborted {
			aborted++
		}
		if fr.Replanned {
			replanned++
		}
	}
	if aborted != 1 || replanned == 0 {
		t.Fatalf("aborted=%d replanned=%d, want exactly one abort and >=1 replanned flight", aborted, replanned)
	}
}

func TestCampaignSabotageTripsChecker(t *testing.T) {
	// The negative control: a planner fed a broken energy model must be
	// caught by the planned-vs-debited invariant, not sail through.
	cfg := testConfig(t, 4, "camp-sab")
	cfg.Sabotage = true
	res, err := cfg.Run()
	if !errors.Is(err, ErrEnergyCheck) {
		t.Fatalf("sabotaged campaign returned %v (max deviation %.2f), want ErrEnergyCheck",
			err, res.MaxDeviationFrac)
	}
}

func TestCampaignBrokenMeterTripsInvariant(t *testing.T) {
	// A tenant app that ignores its waypoints holds flight control until
	// its allotment runs out. With every drone's meter broken
	// (VDC.BreakMeter) exhaustion is never reported, so the first flight
	// leaves a spent tenant in control: the campaign fails through
	// ExecuteRoute with ErrInvariant and an allotment-guard violation, not
	// with ErrEnergyCheck. With a working meter the same campaign passes:
	// exhaustion ends each dwell.
	for _, broken := range []bool{false, true} {
		_, err := testConfig(t, 2, "camp-meter").run(func(d *core.Drone) {
			d.VDC.RegisterAppFactory(dwellAppPkg, func(ctx *core.AppContext) android.Lifecycle {
				return &dwellApp{ctx: ctx}
			})
			if broken {
				d.VDC.BreakMeter()
			}
		})
		if !broken {
			if err != nil {
				t.Fatalf("working meter: %v", err)
			}
			continue
		}
		var v core.Violation
		if !errors.Is(err, core.ErrInvariant) || !errors.As(err, &v) {
			t.Fatalf("broken meter: campaign returned %v, want ErrInvariant with a Violation", err)
		}
		if v.Checker != "allotment-guard" || errors.Is(err, ErrEnergyCheck) {
			t.Fatalf("broken meter: first violation %v (err %v), want allotment-guard", v, err)
		}
	}
}

func TestRingDeliveriesDeterministic(t *testing.T) {
	a := RingDeliveries(6, "ring", base)
	b := RingDeliveries(6, "ring", base)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different campaigns")
	}
	c := RingDeliveries(6, "ring2", base)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical campaigns")
	}
}
