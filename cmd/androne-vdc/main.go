// Command androne-vdc is the Virtual Drone Controller daemon: it boots the
// onboard AnDrone stack (Binder driver, container runtime, device container,
// flight container), loads virtual drone definitions from JSON files, plans
// a route with the Dorling-model flight planner, executes the flight, and
// writes each owner's marked files to an output directory — the drone-side
// half of the Figure 4 workflow, runnable on a desk.
//
// Usage:
//
//	androne-vdc -out ./flight-out def1.json def2.json ...
//
// Definitions use the paper's Figure 2 schema. Apps referenced by
// definitions resolve against the built-in reference apps (com.androne.*).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"androne/internal/apps"
	"androne/internal/core"
	"androne/internal/geo"
	"androne/internal/planner"
)

func main() {
	outDir := flag.String("out", "flight-out", "directory for offloaded files")
	lat := flag.Float64("lat", 43.6084298, "home latitude")
	lon := flag.Float64("lon", -85.8110359, "home longitude")
	seed := flag.String("seed", "vdc", "simulation seed")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: androne-vdc [-out dir] definition.json ...")
		os.Exit(2)
	}

	home := geo.Position{LatLon: geo.LatLon{Lat: *lat, Lon: *lon}, Alt: 0}
	drone, err := core.NewDrone(home, *seed)
	fatal(err)
	apps.RegisterAll(drone.VDC)

	var tasks []planner.Task
	for _, path := range flag.Args() {
		data, err := os.ReadFile(path)
		fatal(err)
		def, err := core.ParseDefinition(data)
		fatal(err)
		if def.Name == "" {
			def.Name = filepath.Base(path)
		}
		_, err = drone.VDC.Create(def)
		fatal(err)
		tasks = append(tasks, planner.Task{
			ID: def.Name, Waypoints: def.Waypoints,
			EnergyJ: def.EnergyAllotted, DurationS: def.MaxDuration,
		})
		fmt.Printf("created virtual drone %q (%d waypoints, %d apps)\n",
			def.Name, len(def.Waypoints), len(def.Apps))
	}

	cfg := planner.DefaultConfig(home)
	plan, err := cfg.Plan(tasks)
	fatal(err)
	fmt.Printf("flight plan: %d route(s), est. %.0f s, %.0f J\n",
		len(plan.Routes), plan.TotalDurationS(), plan.TotalEnergyJ())

	env := core.NewCloudEnv()
	for i, route := range plan.Routes {
		fmt.Printf("executing route %d (%d stops)...\n", i+1, len(route.Stops))
		report, err := drone.ExecuteRoute(route, env)
		fatal(err)
		fmt.Printf("  flight %.0f s, %.0f J, returned home %v, AED pass %v\n",
			report.DurationS, report.FlightEnergyJ, report.ReturnedHome, report.AED.Pass)
		for name, rep := range report.PerDrone {
			fmt.Printf("  %-16s visited %d, completed %v, files %d\n",
				name, rep.WaypointsVisited, rep.Completed, len(rep.Files))
		}
	}

	// Write offloaded files to disk, per owner.
	var written int
	manifests := env.VDR.Manifests()
	for _, m := range manifests {
		owner := m.Owner
		for _, p := range env.Storage.List(owner) {
			data, err := env.Storage.Get(owner, p)
			fatal(err)
			dst := filepath.Join(*outDir, owner, filepath.FromSlash(p))
			fatal(os.MkdirAll(filepath.Dir(dst), 0o755))
			fatal(os.WriteFile(dst, data, 0o644))
			written++
		}
	}
	fmt.Printf("offloaded %d file(s) to %s; %d virtual drone(s) saved to VDR\n",
		written, *outDir, len(manifests))
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "androne-vdc:", err)
		os.Exit(1)
	}
}
