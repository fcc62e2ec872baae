package core_test

import (
	"testing"

	"androne/internal/apps"
	"androne/internal/core"
	"androne/internal/geo"
	"androne/internal/planner"
	"androne/internal/sdk"
)

// squallClock is the checked lockstep clock plus weather: an 18 m/s
// squall, more than the tilt limit can fight, hits on the tick the virtual
// drone is granted its waypoint.
type squallClock struct {
	core.Clock
	d *core.Drone
}

func (c *squallClock) Note(m core.Milestone) {
	if m.Kind == core.Reached {
		c.d.Sim.SetWindFor(18, 0, 2, 25)
	}
}

// TestExecuteRouteRelaysBreach flies the geofence example's mission on the
// production executor: the squall pushes the drone out of its fence, the
// executor's breach relay tells the app, and recovery hands control back
// with a fresh waypointActive — all without a failsafe landing.
func TestExecuteRouteRelaysBreach(t *testing.T) {
	home := geo.Position{LatLon: geo.LatLon{Lat: 43.6084298, Lon: -85.8110359}, Alt: 0}
	d, err := core.NewDrone(home, "geofence-example")
	if err != nil {
		t.Fatal(err)
	}
	apps.RegisterAll(d.VDC)
	def := &core.Definition{
		Name: "fenced", Owner: "pilot", MaxDuration: 60, EnergyAllotted: 30000,
		WaypointDevices: []string{"camera", sdk.FlightControlDevice},
		Apps:            []string{apps.RemoteControlPackage},
		Waypoints: []geo.Waypoint{{
			Position:  geo.Position{LatLon: geo.OffsetNE(home.LatLon, 80, 0), Alt: 15},
			MaxRadius: 40,
		}},
	}
	vd, err := d.VDC.Create(def)
	if err != nil {
		t.Fatal(err)
	}
	var breachEvents, activeEvents int
	vd.SDKFor(apps.RemoteControlPackage).RegisterWaypointListener(sdk.ListenerFuncs{
		Breached: func() { breachEvents++ },
		Active:   func(geo.Waypoint) { activeEvents++ },
	})
	rc := apps.RemoteControlFor("fenced")
	rc.Queue(
		apps.Command{GotoNorth: 10, GotoEast: 10}, // inside the fence: accepted
		apps.Command{GotoNorth: 500, GotoEast: 0}, // far outside: refused by VFC
		apps.Command{GotoNorth: -10, GotoEast: 0}, // inside again
	)
	plan, err := planner.DefaultConfig(home).Plan([]planner.Task{{
		ID: def.Name, Waypoints: def.Waypoints,
		EnergyJ: def.EnergyAllotted, DurationS: def.MaxDuration,
	}})
	if err != nil {
		t.Fatal(err)
	}

	lock := &core.Lockstep{Drone: d}
	clk := &squallClock{Clock: lock, d: d}
	report, err := d.Fly(plan.Routes[0], clk)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Offload(core.NewCloudEnv(), clk, report); err != nil {
		t.Fatal(err)
	}

	if rep := report.PerDrone["fenced"]; rep.Breaches < 1 {
		t.Fatalf("breaches = %d, want >= 1", rep.Breaches)
	}
	if breachEvents < 1 {
		t.Error("app never saw geofenceBreached")
	}
	if activeEvents < 2 {
		t.Errorf("app saw %d waypointActive events, want the grant plus one after recovery", activeEvents)
	}
	// Breach conduct ran on every tick: no landing during the recovery,
	// and the recovery ended in loiter.
	if err := lock.Err(); err != nil {
		t.Error(err)
	}
	if _, rejected := rc.Stats(); rejected == 0 {
		t.Error("out-of-fence command was not rejected")
	}
	if !report.ReturnedHome {
		t.Error("flight did not continue home after the breach")
	}
}
