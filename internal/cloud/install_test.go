package cloud_test

import (
	"errors"
	"testing"

	"androne/internal/cloud"
	"androne/internal/core"
	"androne/internal/geo"
	"androne/internal/planner"
	"androne/internal/sdk"
	"androne/internal/service"
)

// twoStopDef is a virtual drone with two waypoints near base, so that one
// flight visiting the first leaves it unfinished.
func twoStopDef(base geo.Position, name string) *core.Definition {
	def := &core.Definition{
		Name: name, Owner: "dave", MaxDuration: 400, EnergyAllotted: 60000,
		WaypointDevices: []string{"camera", sdk.FlightControlDevice},
	}
	for _, ne := range [][2]float64{{60, 0}, {-60, 30}} {
		def.Waypoints = append(def.Waypoints, geo.Waypoint{
			Position:  geo.Position{LatLon: geo.OffsetNE(base.LatLon, ne[0], ne[1]), Alt: 15},
			MaxRadius: 40,
		})
	}
	return def
}

// TestInstallFromVDR drives core's Drone.Install through each VDR outcome:
// an unfinished entry is restored, a missing or completed one is created
// from the definition, and a corrupt one is an error that installs
// nothing.
func TestInstallFromVDR(t *testing.T) {
	home := geo.Position{LatLon: geo.LatLon{Lat: 43.6084298, Lon: -85.8110359}}
	saved := func(t *testing.T, vdr *cloud.VDR, name string, completed bool) *core.Definition {
		t.Helper()
		src, err := core.NewDrone(home, t.Name()+"-src")
		if err != nil {
			t.Fatal(err)
		}
		def := twoStopDef(home, name)
		if _, err := src.VDC.Create(def); err != nil {
			t.Fatal(err)
		}
		if err := src.VDC.WaypointReached(name, 0); err != nil {
			t.Fatal(err)
		}
		if err := src.VDC.WaypointLeft(name, 0); err != nil {
			t.Fatal(err)
		}
		entry, err := src.VDC.Save(name)
		if err != nil {
			t.Fatal(err)
		}
		entry.Completed = completed
		if err := vdr.Save(entry); err != nil {
			t.Fatal(err)
		}
		return def
	}
	visited := func(t *testing.T, d *core.Drone, name string) int {
		t.Helper()
		vd, err := d.VDC.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		n, _ := vd.Progress()
		return n
	}

	t.Run("unfinished entry restores", func(t *testing.T) {
		vdr := cloud.NewVDR()
		def := saved(t, vdr, "vd", false)
		d, _ := core.NewDrone(home, t.Name())
		if err := d.Install(vdr, "vd", def); err != nil {
			t.Fatal(err)
		}
		if n := visited(t, d, "vd"); n != 1 {
			t.Fatalf("restored drone visited %d waypoints, want 1", n)
		}
		if err := d.Install(vdr, "vd", nil); err != nil { // resident: a no-op
			t.Fatal(err)
		}
	})
	t.Run("completed entry starts afresh", func(t *testing.T) {
		vdr := cloud.NewVDR()
		def := saved(t, vdr, "vd", true)
		d, _ := core.NewDrone(home, t.Name())
		if err := d.Install(vdr, "vd", def); err != nil {
			t.Fatal(err)
		}
		if n := visited(t, d, "vd"); n != 0 {
			t.Fatalf("fresh drone visited %d waypoints", n)
		}
	})
	t.Run("missing entry is created", func(t *testing.T) {
		d, _ := core.NewDrone(home, t.Name())
		if err := d.Install(cloud.NewVDR(), "vd", twoStopDef(home, "vd")); err != nil {
			t.Fatal(err)
		}
		if n := visited(t, d, "vd"); n != 0 {
			t.Fatalf("fresh drone visited %d waypoints", n)
		}
		if err := d.Install(cloud.NewVDR(), "other", nil); err == nil {
			t.Fatal("installed a drone with no entry and no definition")
		}
	})
	t.Run("corrupt entry is an error", func(t *testing.T) {
		vdr := cloud.NewVDR()
		def := saved(t, vdr, "vd", false)
		if err := cloud.CorruptLayer(vdr, "vd", cloud.LayerState); err != nil {
			t.Fatal(err)
		}
		d, _ := core.NewDrone(home, t.Name())
		if err := d.Install(vdr, "vd", def); !errors.Is(err, cloud.ErrLayerCorrupt) {
			t.Fatalf("Install of a corrupt entry: %v, want ErrLayerCorrupt", err)
		}
		if got := d.VDC.List(); len(got) != 0 {
			t.Fatalf("a corrupt entry left virtual drones %v", got)
		}
	})
}

// TestFlyScheduledSurfacesCorruptLayer flies the first of a virtual
// drone's two waypoints, corrupts its saved state layer, and flies the
// second: the service must fail with ErrLayerCorrupt rather than quietly
// start the mission again from a fresh drone.
func TestFlyScheduledSurfacesCorruptLayer(t *testing.T) {
	cfg := service.DefaultConfig()
	cfg.Seed = t.Name()
	s, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.OrderJSON("dave", "resumer", twoStopDef(cfg.Base, "resumer")); err != nil {
		t.Fatal(err)
	}
	plan, err := s.ProcessOrders()
	if err != nil {
		t.Fatal(err)
	}
	flight := func(index int) *planner.Plan {
		for _, r := range plan.Routes {
			for _, st := range r.Stops {
				if st.Index == index {
					return &planner.Plan{Base: plan.Base, Routes: []planner.Route{{Stops: []planner.Stop{st}}}}
				}
			}
		}
		t.Fatalf("plan has no stop for waypoint %d: %+v", index, plan.Routes)
		return nil
	}
	if _, err := s.FlyScheduled(flight(0)); err != nil {
		t.Fatal(err)
	}
	entry, err := s.VDR().Load("resumer")
	if err != nil {
		t.Fatal(err)
	}
	if entry.Completed {
		t.Fatal("one of two waypoints flown, yet the entry is completed")
	}
	if err := cloud.CorruptLayer(s.VDR(), "resumer", cloud.LayerState); err != nil {
		t.Fatal(err)
	}
	if _, err := s.FlyScheduled(flight(1)); !errors.Is(err, cloud.ErrLayerCorrupt) {
		t.Fatalf("second flight over a corrupt entry: %v, want ErrLayerCorrupt", err)
	}
	for _, d := range s.Fleet() {
		if got := d.VDC.List(); len(got) != 0 {
			t.Fatalf("a corrupt entry left virtual drones %v", got)
		}
	}
}
