package core

import (
	"errors"
	"slices"
	"testing"

	"androne/internal/android"
	"androne/internal/binder"
	"androne/internal/devcon"
)

// TestTeardownFreesBinderState boots and saves 10,000 virtual drones on
// one drone, each making a device request that routes a permission check
// through the device container. Afterwards every binder handle table,
// node→handle index and death link, and the device container's registry,
// must be at their size after the first one: a torn-down virtual drone
// leaves nothing behind.
func TestTeardownFreesBinderState(t *testing.T) {
	const drones = 10000
	d := newTestDrone(t)
	sm := d.DevCon.Instance().ServiceManager()
	var services []string
	var footprint binder.Footprint
	for i := 0; i < drones; i++ {
		vd, err := d.VDC.Create(defWith("vd", 1))
		if err != nil {
			t.Fatal(err)
		}
		vd.Instance.ActivityManager().Grant(10001, android.PermCamera)
		app := android.NewClient(vd.Instance.Namespace(), 10001)
		h, err := app.GetService(devcon.SvcCamera)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := app.Call(h, devcon.CmdCapture, nil); !errors.Is(err, devcon.ErrPolicyDenied) {
			t.Fatalf("capture off-waypoint: %v, want ErrPolicyDenied", err)
		}
		if _, err := d.VDC.Save("vd"); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			services, footprint = sm.Services(), d.Driver.Footprint()
		}
	}
	if got := sm.Services(); !slices.Equal(got, services) {
		t.Fatalf("device container registry = %v, want %v", got, services)
	}
	if got := d.Driver.Footprint(); got != footprint {
		t.Fatalf("binder footprint after %d drones = %+v, want %+v", drones, got, footprint)
	}
}
