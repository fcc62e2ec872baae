// Command androne-sitl runs the software-in-the-loop flight simulator
// standalone: it boots the quadcopter physics and flight controller, flies a
// scripted pattern (takeoff, square circuit, return to launch), and streams
// MAVLink-derived telemetry to stdout — the role ArduPilot SITL plays in the
// paper's §6.6 setup.
package main

import (
	"flag"
	"fmt"
	"os"

	"androne/internal/flight"
	"androne/internal/geo"
	"androne/internal/mavlink"
)

func main() {
	lat := flag.Float64("lat", 43.6084298, "home latitude")
	lon := flag.Float64("lon", -85.8110359, "home longitude")
	alt := flag.Float64("alt", 15, "circuit altitude (m)")
	side := flag.Float64("side", 60, "square circuit side length (m)")
	windN := flag.Float64("wind-n", 0, "mean wind, north (m/s)")
	windE := flag.Float64("wind-e", 0, "mean wind, east (m/s)")
	gust := flag.Float64("gust", 0, "wind gust intensity (m/s)")
	seed := flag.String("seed", "sitl", "simulation seed")
	flag.Parse()

	home := geo.Position{LatLon: geo.LatLon{Lat: *lat, Lon: *lon}, Alt: 0}
	mon := flight.NewAEDMonitor()
	v := flight.NewVehicle(home, *seed, flight.WithAEDMonitor(mon))
	v.Sim.SetWind(*windN, *windE, *gust)
	v.StepSeconds(0.1)

	c := v.Controller
	fail := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "sitl:", err)
			os.Exit(1)
		}
	}
	fail(c.SetModeNum(mavlink.ModeGuided))
	fail(c.Arm())
	fmt.Println("armed; taking off")
	fail(c.Takeoff(*alt))
	if !v.RunUntil(func() bool { return v.Sim.AltitudeAGL() > *alt-0.5 }, 60) {
		fail(fmt.Errorf("takeoff failed at %.1f m", v.Sim.AltitudeAGL()))
	}
	report(v)

	corners := [][2]float64{{*side, 0}, {*side, *side}, {0, *side}, {0, 0}}
	for i, c2 := range corners {
		target := geo.Position{LatLon: geo.OffsetNE(home.LatLon, c2[0], c2[1]), Alt: *alt}
		fail(c.GotoPosition(target, 0))
		if !v.RunUntil(func() bool { return geo.Distance3D(v.Sim.Position(), target) < 2 }, 120) {
			fail(fmt.Errorf("corner %d unreached", i+1))
		}
		fmt.Printf("corner %d reached\n", i+1)
		report(v)
	}

	fail(c.SetModeNum(mavlink.ModeRTL))
	if !v.RunUntil(func() bool { return v.Sim.OnGround() && !c.Armed() }, 180) {
		fail(fmt.Errorf("RTL did not complete"))
	}
	fmt.Println("landed and disarmed")
	report(v)

	aed := mon.Result()
	fmt.Printf("AED: max divergence %.2f deg, longest excursion %.2f s, pass=%v\n",
		aed.MaxDivergenceDeg, aed.LongestExcursionS, aed.Pass)
	fmt.Printf("energy used: %.0f J (%.1f%% of battery)\n",
		v.Sim.EnergyUsedJ(), 100*(1-v.Sim.BatteryRemaining()))
}

func report(v *flight.Vehicle) {
	for _, m := range v.Controller.Telemetry() {
		switch t := m.(type) {
		case *mavlink.Heartbeat:
			fmt.Printf("  mode=%s armed=%v", mavlink.ModeName(t.CustomMode), t.Armed())
		case *mavlink.GlobalPositionInt:
			fmt.Printf(" pos=%.7f,%.7f alt=%.1fm",
				mavlink.E7ToLatLon(t.LatE7), mavlink.E7ToLatLon(t.LonE7), float64(t.RelativeAltMM)/1000)
		case *mavlink.SysStatus:
			fmt.Printf(" batt=%d%% %.2fV", t.BatteryRemaining, float64(t.VoltageBatteryMV)/1000)
		}
	}
	fmt.Println()
}
