// Geofence: demonstrates AnDrone's geofenced flight control (paper §4.3).
// An interactive virtual drone is granted control at its waypoint; commands
// outside its geofence are refused by the virtual flight controller, and
// when a gale pushes the drone out of the fence, the breach protocol runs:
// the app is informed, commands are disabled, the drone is guided back
// inside and loitered, then control is returned.
package main

import (
	"fmt"
	"log"

	"androne/internal/apps"
	"androne/internal/core"
	"androne/internal/geo"
	"androne/internal/mavlink"
	"androne/internal/planner"
	"androne/internal/sdk"
)

func main() {
	home := geo.Position{LatLon: geo.LatLon{Lat: 43.6084298, Lon: -85.8110359}, Alt: 0}
	drone, err := core.NewDrone(home, "geofence-example")
	check(err)
	apps.RegisterAll(drone.VDC)

	def := &core.Definition{
		Name: "fenced", Owner: "pilot", MaxDuration: 60, EnergyAllotted: 30000,
		WaypointDevices: []string{"camera", "flight-control"},
		Apps:            []string{apps.RemoteControlPackage},
		Waypoints: []geo.Waypoint{{
			Position:  geo.Position{LatLon: geo.OffsetNE(home.LatLon, 80, 0), Alt: 15},
			MaxRadius: 40,
		}},
	}
	vd, err := drone.VDC.Create(def)
	check(err)

	// Observe breach notifications the way an app would.
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
	check(err)

	// The weather rides on the mission clock: an 18 m/s squall — stronger
	// than the tilt limit can fight — hits on the tick the virtual drone is
	// granted its waypoint. The squall's duration is bounded in sim time
	// (SetWindFor), so the drone is pushed out of its fence, the breach
	// protocol runs, and recovery succeeds once the air calms.
	lock := &core.Lockstep{Drone: drone}
	clk := &weather{Clock: lock, drone: drone}
	env := core.NewCloudEnv()
	report, err := drone.Fly(plan.Routes[0], clk)
	check(err)
	check(drone.Offload(env, clk, report))
	// The lockstep checked the paper's invariants on every tick: the
	// breach must end in loiter, never a landing.
	check(lock.Err())

	executed, rejected := rc.Stats()
	rep := report.PerDrone["fenced"]
	fmt.Printf("commands: %d executed, %d rejected by the VFC\n", executed, rejected)
	fmt.Printf("breaches handled: %d; app saw %d breach event(s), %d waypointActive\n",
		rep.Breaches, breachEvents, activeEvents)
	fmt.Printf("flight: %.0f s, returned home %v, mode now %s\n",
		report.DurationS, report.ReturnedHome, mavlink.ModeName(drone.FC.Mode()))

	if rejected == 0 {
		log.Fatal("geofence example failed: out-of-fence command was not rejected")
	}
	if rep.Breaches == 0 || breachEvents == 0 {
		log.Fatal("geofence example failed: breach protocol did not run")
	}
	if !report.ReturnedHome {
		log.Fatal("geofence example failed: flight did not continue home after breach")
	}
	fmt.Println("geofence example OK")
}

// weather is the checked lockstep mission clock with a squall on waypoint
// grant.
type weather struct {
	core.Clock
	drone *core.Drone
}

func (w *weather) Note(m core.Milestone) {
	if m.Kind == core.Reached {
		fmt.Println("weather: 25 s squall hits as the virtual drone is granted its waypoint")
		w.drone.Sim.SetWindFor(18, 0, 2, 25)
	}
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
