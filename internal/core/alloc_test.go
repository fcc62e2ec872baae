package core

import (
	"testing"

	"androne/internal/flight"
	"androne/internal/geo"
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
	d := climbingDrone(t, "alloc-drone")

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

// climbingDrone boots a drone, arms it in GUIDED, and flies two seconds of
// a takeoff to the transit altitude.
func climbingDrone(tb testing.TB, seed string) *Drone {
	tb.Helper()
	d, err := NewDrone(idleHome, seed)
	if err != nil {
		tb.Fatal(err)
	}
	d.StepSeconds(0.5) // settle the estimator
	if err := d.FC.SetModeNum(mavlink.ModeGuided); err != nil {
		tb.Fatal(err)
	}
	if err := d.FC.Arm(); err != nil {
		tb.Fatal(err)
	}
	if err := d.FC.Takeoff(TransitAltM); err != nil {
		tb.Fatal(err)
	}
	d.StepSeconds(2) // climb into a working flight state
	return d
}

// BenchmarkDroneStep measures one 400 Hz fast-loop step of core.Drone —
// physics, the flight controller and the AED ground truth — on an armed
// drone in guided transit: it shuttles between two points 200 m apart,
// turning back every 20 simulated seconds, so the airframe stays tilted
// and every step runs the full attitude and position cascade.
func BenchmarkDroneStep(b *testing.B) {
	d := climbingDrone(b, "bench-drone")
	ends := [2]geo.Position{
		{LatLon: geo.OffsetNE(idleHome.LatLon, 200, 0), Alt: TransitAltM},
		{LatLon: idleHome.LatLon, Alt: TransitAltM},
	}
	const leg = 20 * flight.FastLoopHz
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%leg == 0 {
			if err := d.FC.GotoPosition(ends[i/leg%2], 0); err != nil {
				b.Fatal(err)
			}
		}
		d.Step(flight.FastLoopDT)
	}
	b.StopTimer()
	if !d.FC.Armed() || d.Sim.OnGround() {
		b.Fatal("drone left guided flight during the benchmark; it measured the wrong path")
	}
}
