package core

import (
	"testing"

	"androne/internal/flight"
	"androne/internal/mavlink"
)

// TestDroneStepZeroAlloc pins core.Drone.Step — physics, the flight
// controller, and the ground truth handed to the drone's AED monitor — at
// 0 allocs/op on an armed drone in guided flight. flight's
// TestStepZeroAlloc pins the bare controller; this pin covers what every
// real drone attaches to it. Each run is ten simulated seconds of steps,
// so a per-step cost that only allocates now and then, such as appending
// to a growing log, still shows up as at least one allocation per run.
func TestDroneStepZeroAlloc(t *testing.T) {
	d, err := NewDrone(idleHome, "alloc-drone")
	if err != nil {
		t.Fatal(err)
	}
	d.StepSeconds(0.5) // settle the estimator
	if err := d.FC.SetModeNum(mavlink.ModeGuided); err != nil {
		t.Fatal(err)
	}
	if err := d.FC.Arm(); err != nil {
		t.Fatal(err)
	}
	if err := d.FC.Takeoff(TransitAltM); err != nil {
		t.Fatal(err)
	}
	d.StepSeconds(2) // climb into a working flight state

	const steps = 10 * flight.FastLoopHz
	allocs := testing.AllocsPerRun(5, func() {
		for i := 0; i < steps; i++ {
			d.Step(flight.FastLoopDT)
		}
	})
	if allocs != 0 {
		t.Fatalf("%d drone steps allocated %.1f times, want 0", steps, allocs)
	}
	if !d.FC.Armed() || d.Sim.OnGround() {
		t.Fatal("drone left guided flight during the pin; the pin measured the wrong path")
	}
}
