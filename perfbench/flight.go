package main

import (
	"fmt"
	"math"
	"time"

	"androne/internal/apps"
	"androne/internal/core"
	"androne/internal/flight"
	"androne/internal/geo"
	"androne/internal/mavlink"
	"androne/internal/sdk"
	"androne/internal/simharness"
)

// The per-tick traced run flies one drone stack through a scenario's
// phases — parked hold, takeoff, transit, dwell with the virtual drone
// active, RTL, parked hold — using only public calls on core.Drone, in
// the order StepSeconds and ExecuteRoute make them. Traced, it times
// each layer's calls from outside: the fast-loop calls on a 1-in-64
// sample of steps (timing every step costs about 10%), and each tick's
// fast-loop steps as one block; the 10 Hz calls on every tick. Timing
// changes no state, so a traced flight must end bit-identical to an
// untraced one with the same seed.

// stepSample is the fast-loop sampling rate of the traced flight: one
// step in stepSample on average, picked pseudo-randomly. A fixed period
// would alias with the controller's sub-rate loops (every 8th or 40th
// step) and bias the estimate.
const stepSample = 64

// stepLayers are the sampled fast-loop layers; each covers every step.
var stepLayers = [...]string{"sitl.step", "flight.step", "flight.truth"}

// flightEnd is the state a flight must reproduce exactly.
type flightEnd struct {
	fingerprint uint64
	energyJ     float64
	now         time.Time
}

// flightRun is one scripted flight. led is nil when untraced.
type flightRun struct {
	d     *core.Drone
	led   *ledger
	steps int64
	rng   uint64 // xorshift state choosing the sampled steps
	// parked counts stepped hold ticks; leapt counts ticks skipped by
	// BulkAdvanceTicks.
	parked, leapt int64
}

const stepsPerTick = int(simharness.TickS * flight.FastLoopHz)

// tick advances one harness tick exactly as core.Drone.StepSeconds(TickS)
// does: the 10 Hz calls run after the first fast-loop step.
func (f *flightRun) tick() {
	d := f.d
	if f.led == nil {
		d.StepSeconds(simharness.TickS)
		f.steps += int64(stepsPerTick)
		return
	}
	// The tick's fast-loop steps are one sampled block: the tick's time
	// minus its 10 Hz calls.
	start := time.Now()
	var tenHz time.Duration
	for i := 0; i < stepsPerTick; i++ {
		f.step()
		if i == 0 {
			t0 := time.Now()
			d.Tel.AdvanceTick()
			t1 := time.Now()
			d.Proxy.Tick()
			t2 := time.Now()
			d.Driver.FlushMetrics()
			t3 := time.Now()
			f.led.add("telemetry.tick", t1.Sub(t0))
			f.led.add("mavproxy.tick", t2.Sub(t1))
			f.led.add("binder.flush", t3.Sub(t2))
			tenHz = t3.Sub(t0)
		}
	}
	f.led.block(time.Since(start) - tenHz)
}

// step is one traced fast-loop step: the calls core.Drone.Step makes.
func (f *flightRun) step() {
	d := f.d
	f.steps++
	f.rng ^= f.rng << 13
	f.rng ^= f.rng >> 7
	f.rng ^= f.rng << 17
	if f.rng%stepSample != 0 {
		d.Step(flight.FastLoopDT)
		return
	}
	t0 := time.Now()
	d.Sim.Step(flight.FastLoopDT)
	t1 := time.Now()
	d.FC.Step(flight.FastLoopDT)
	t2 := time.Now()
	r, p, y := d.Sim.Attitude()
	d.FC.RecordTruth(r, p, y)
	t3 := time.Now()
	f.led.sample(stepLayers[0], t1.Sub(t0))
	f.led.sample(stepLayers[1], t2.Sub(t1))
	f.led.sample(stepLayers[2], t3.Sub(t2))
}

// timed runs fn as one call of the named leaf layer when traced.
func (f *flightRun) timed(name string, fn func()) {
	if f.led == nil {
		fn()
		return
	}
	t0 := time.Now()
	fn()
	f.led.add(name, time.Since(t0))
}

// control runs a flight-planner or VDC control call (mode changes,
// waypoint grants), timed as core.control.
func (f *flightRun) control(fn func() error) error {
	var err error
	f.timed("core.control", func() { err = fn() })
	return err
}

// hold parks the drone for the given sim seconds as the event-mode
// runner does: step ticks until the idle fingerprint is stable across a
// tick, then leap the rest of the hold with BulkAdvanceTicks, stepping
// the final tick.
func (f *flightRun) hold(seconds float64) {
	n := int64(seconds/simharness.TickS + 0.5)
	d := f.d
	var last uint64
	stable := false
	for left := n; left > 0; {
		if k := left - 1; k > 0 && stable && d.IdleEligible() {
			f.timed("core.leap", func() { d.BulkAdvanceTicks(int(k), stepsPerTick) })
			f.leapt += k
			left -= k
			continue
		}
		if f.led != nil {
			t0 := time.Now()
			f.tick()
			f.led.addParent("core.parked_tick", time.Since(t0))
		} else {
			f.tick()
		}
		f.parked++
		left--
		var fp uint64
		f.timed("core.fingerprint", func() { fp = d.IdleFingerprint() })
		stable = fp == last
		last = fp
	}
}

// definitionFor turns a scenario's virtual drone spec into the definition
// the harness orders, with the harness's defaults.
func definitionFor(spec simharness.DroneSpec) *core.Definition {
	def := &core.Definition{
		Name: spec.Name, Owner: spec.Owner,
		MaxDuration: spec.MaxDurationS, EnergyAllotted: spec.EnergyJ,
		Apps: spec.Apps, AppArgs: spec.AppArgs,
		WaypointDevices: spec.WaypointDevices, ContinuousDevices: spec.ContinuousDevices,
	}
	if def.MaxDuration == 0 {
		def.MaxDuration = 600
	}
	if def.EnergyAllotted == 0 {
		def.EnergyAllotted = 45000
	}
	if def.WaypointDevices == nil {
		def.WaypointDevices = []string{"camera", sdk.FlightControlDevice}
	}
	for _, w := range spec.Waypoints {
		def.Waypoints = append(def.Waypoints, geo.Waypoint{
			Position: geo.Position{
				LatLon: geo.OffsetNE(simharness.Home.LatLon, w.NorthM, w.EastM),
				Alt:    w.AltM,
			},
			MaxRadius: w.RadiusM,
		})
	}
	return def
}

// flyScenario boots a stack with sc's virtual drones and flies sc's
// phases, traced when led is non-nil. It returns the final state and the
// wall time of the flight (stack boot excluded).
func flyScenario(sc *simharness.Scenario, led *ledger) (flightEnd, time.Duration, *flightRun, error) {
	d, err := core.NewDrone(simharness.Home, sc.Seed)
	if err != nil {
		return flightEnd{}, 0, nil, err
	}
	apps.RegisterAll(d.VDC)
	for _, spec := range sc.Drones {
		if _, err := d.VDC.Create(definitionFor(spec)); err != nil {
			return flightEnd{}, 0, nil, fmt.Errorf("creating %s: %w", spec.Name, err)
		}
	}
	f := &flightRun{d: d, led: led, rng: 0x9e3779b97f4a7c15}
	start := time.Now()
	if err := f.fly(sc); err != nil {
		return flightEnd{}, 0, nil, err
	}
	wall := time.Since(start)
	if led != nil {
		for _, n := range stepLayers {
			led.cover(n, f.steps)
		}
	}
	return flightEnd{d.IdleFingerprint(), d.Sim.EnergyUsedJ(), d.Sim.Now()}, wall, f, nil
}

func (f *flightRun) fly(sc *simharness.Scenario) error {
	d := f.d
	ctl := d.Proxy.Master().Controller()
	const dt = simharness.TickS
	if sc.HoldBeforeS > 0 {
		f.hold(sc.HoldBeforeS)
	}
	f.tick() // let the estimator acquire a fix
	if err := f.control(func() error {
		if err := ctl.SetModeNum(mavlink.ModeGuided); err != nil {
			return err
		}
		if err := ctl.Arm(); err != nil {
			return err
		}
		return ctl.Takeoff(core.TransitAltM)
	}); err != nil {
		return err
	}
	for i := 0; i < int(60/dt) && d.Sim.AltitudeAGL() <= core.TransitAltM-0.6; i++ {
		f.tick()
	}
	if d.Sim.AltitudeAGL() <= core.TransitAltM-0.6 {
		return fmt.Errorf("takeoff did not complete (alt %.1f m)", d.Sim.AltitudeAGL())
	}

	for _, spec := range sc.Drones {
		name := spec.Name
		for idx, ws := range spec.Waypoints {
			vd, err := d.VDC.Get(name)
			if err != nil {
				return err
			}
			wp := vd.Def.Waypoints[idx]
			if err := f.control(func() error {
				if err := ctl.SetModeNum(mavlink.ModeGuided); err != nil {
					return err
				}
				return ctl.GotoPosition(wp.Position, 0)
			}); err != nil {
				return err
			}
			timeout := geo.Distance3D(d.Sim.Position(), wp.Position)/2 + 30
			reached := false
			for elapsed := 0.0; elapsed < timeout; elapsed += dt {
				f.tick()
				f.timed("core.vdc_tick", func() { d.VDC.TickTransit(dt) })
				if geo.Distance3D(d.Sim.Position(), wp.Position) < 2 {
					reached = true
					break
				}
			}
			if !reached {
				return fmt.Errorf("could not reach waypoint %s/%d", name, idx)
			}
			if err := f.control(func() error { return d.VDC.WaypointReached(name, idx) }); err != nil {
				return err
			}
			dwellCap := ws.DwellS
			if dwellCap == 0 {
				dwellCap = 20
			}
			dwellCap = dwellCap*3 + 30
			lastEnergy := d.Sim.EnergyUsedJ()
			for elapsed := 0.0; elapsed < dwellCap; elapsed += dt {
				f.tick()
				exhausted := false
				f.timed("core.vdc_tick", func() {
					d.VDC.TickActive(name, dt)
					now := d.Sim.EnergyUsedJ()
					exhausted = d.VDC.MeterActive(name, dt, now-lastEnergy)
					lastEnergy = now
				})
				if exhausted || vd.CompleteRequested() {
					break
				}
			}
			if err := f.control(func() error { return d.VDC.WaypointLeft(name, idx) }); err != nil {
				return err
			}
		}
	}

	if err := f.control(func() error { return ctl.SetModeNum(mavlink.ModeRTL) }); err != nil {
		return err
	}
	for elapsed := 0.0; elapsed < 240 && !(d.Sim.OnGround() && !ctl.Armed()); elapsed += dt {
		f.tick()
	}
	if sc.HoldAfterS > 0 {
		f.hold(sc.HoldAfterS)
	}
	return nil
}

// sameEnd reports whether two flights ended in bit-identical state.
func sameEnd(a, b flightEnd) bool {
	return a.fingerprint == b.fingerprint &&
		math.Float64bits(a.energyJ) == math.Float64bits(b.energyJ) &&
		a.now.Equal(b.now)
}
