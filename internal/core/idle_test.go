package core

import (
	"math"
	"testing"

	"androne/internal/geo"
	"androne/internal/mavlink"
)

var idleHome = geo.Position{LatLon: geo.LatLon{Lat: 43.6084298, Lon: -85.8110359}, Alt: 0}

// TestBulkAdvanceMatchesLockstepParked is the bit-exactness contract
// behind the event runner's leaps: over a parked, disarmed drone,
// BulkAdvanceTicks(n) must land on state indistinguishable from n real
// StepSeconds ticks — accumulators bit-equal, fingerprint unchanged, and
// a subsequent flight bit-identical (which would catch any 50 Hz GPS
// phase desync from the replayed loop counter).
func TestBulkAdvanceMatchesLockstepParked(t *testing.T) {
	a, err := NewDrone(idleHome, "idle-exact")
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewDrone(idleHome, "idle-exact")
	if err != nil {
		t.Fatal(err)
	}

	const tick = 0.1
	step := func(d *Drone, n int) {
		for i := 0; i < n; i++ {
			d.StepSeconds(tick)
		}
	}

	// Warm both identically until the fingerprint is stable.
	step(a, 2)
	step(b, 2)
	if !a.IdleEligible() {
		t.Fatal("fresh drone not idle-eligible")
	}
	fp := a.IdleFingerprint()
	step(a, 1)
	step(b, 1)
	if got := a.IdleFingerprint(); got != fp {
		t.Fatalf("fingerprint not stable while parked: %#x then %#x", fp, got)
	}

	// a pays for every tick; b leaps.
	const n = 6000 // 10 minutes of sim time
	step(a, n)
	b.BulkAdvanceTicks(n, 40)

	if ae, be := a.Sim.EnergyUsedJ(), b.Sim.EnergyUsedJ(); ae != be {
		t.Errorf("energy diverged: lockstep %v (%#x) bulk %v (%#x)",
			ae, math.Float64bits(ae), be, math.Float64bits(be))
	}
	if at, bt := a.Sim.Now(), b.Sim.Now(); !at.Equal(bt) {
		t.Errorf("sim clock diverged: lockstep %v bulk %v", at, bt)
	}
	if af, bf := a.IdleFingerprint(), b.IdleFingerprint(); af != bf {
		t.Errorf("fingerprint diverged: lockstep %#x bulk %#x", af, bf)
	}
	if at, bt := a.Tel.Tick(), b.Tel.Tick(); at != bt {
		t.Errorf("recorder tick diverged: lockstep %d bulk %d", at, bt)
	}

	// Fly both: any hidden divergence (GPS phase, estimator, battery)
	// shows up as a position split within a few hundred fast steps.
	for _, d := range []*Drone{a, b} {
		if err := d.FC.SetModeNum(mavlink.ModeGuided); err != nil {
			t.Fatal(err)
		}
		if err := d.FC.Arm(); err != nil {
			t.Fatal(err)
		}
		if err := d.FC.Takeoff(TransitAltM); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		step(a, 1)
		step(b, 1)
		pa, pb := a.Sim.Position(), b.Sim.Position()
		if pa != pb {
			t.Fatalf("flight diverged at post-leap tick %d: %+v vs %+v", i, pa, pb)
		}
	}
	if a.Sim.AltitudeAGL() < 1 {
		t.Fatalf("drones never lifted off (alt %.2f); divergence check vacuous", a.Sim.AltitudeAGL())
	}
}

// stepUntil steps d one 0.1 s tick at a time until cond holds or maxS sim
// seconds elapse, and reports whether cond held.
func stepUntil(d *Drone, cond func() bool, maxS float64) bool {
	for elapsed := 0.0; elapsed < maxS; elapsed += 0.1 {
		d.StepSeconds(0.1)
		if cond() {
			return true
		}
	}
	return false
}

// landedDrone flies a short hop, lands, and steps whole ticks until the
// idle fingerprint is stable: the state in which the event runner starts
// leaping a post-flight hold. The attitude estimate is still decaying
// toward level there, so a leap must replay it.
func landedDrone(t *testing.T, seed string) *Drone {
	t.Helper()
	d, err := NewDrone(idleHome, seed)
	if err != nil {
		t.Fatal(err)
	}
	d.StepSeconds(0.5)
	if err := d.FC.SetModeNum(mavlink.ModeGuided); err != nil {
		t.Fatal(err)
	}
	if err := d.FC.Arm(); err != nil {
		t.Fatal(err)
	}
	if err := d.FC.Takeoff(TransitAltM); err != nil {
		t.Fatal(err)
	}
	if !stepUntil(d, func() bool { return d.Sim.AltitudeAGL() > TransitAltM-1 }, 30) {
		t.Fatal("takeoff never reached transit altitude")
	}
	dest := geo.Position{LatLon: geo.OffsetNE(idleHome.LatLon, 30, 10), Alt: TransitAltM}
	if err := d.FC.GotoPosition(dest, 0); err != nil {
		t.Fatal(err)
	}
	d.StepSeconds(10)
	if err := d.FC.SetModeNum(mavlink.ModeLand); err != nil {
		t.Fatal(err)
	}
	if !stepUntil(d, func() bool { return !d.FC.Armed() }, 60) {
		t.Fatal("drone never landed and disarmed")
	}
	last := d.IdleFingerprint()
	for i := 0; i < 200; i++ {
		d.StepSeconds(0.1)
		fp := d.IdleFingerprint()
		if fp == last && d.IdleEligible() {
			return d
		}
		last = fp
	}
	t.Fatal("fingerprint never stabilised after landing")
	return nil
}

// TestBulkAdvanceMatchesLockstepSettling is the exactness contract for a
// post-flight leap: the estimate is still settling, so BulkAdvanceTicks
// must replay the estimator bit-exactly, not merely the accumulators.
func TestBulkAdvanceMatchesLockstepSettling(t *testing.T) {
	a := landedDrone(t, "idle-settling")
	b := landedDrone(t, "idle-settling")

	r0, p0, y0 := b.FC.EstimatedAttitude()
	if r0 == 0 && p0 == 0 {
		t.Fatalf("estimate already level at leap start (%v, %v); test is vacuous", r0, p0)
	}

	const n = 6000
	for i := 0; i < n; i++ {
		a.StepSeconds(0.1)
	}
	b.BulkAdvanceTicks(n, 40)

	ar, ap, ay := a.FC.EstimatedAttitude()
	br, bp, by := b.FC.EstimatedAttitude()
	for _, c := range []struct {
		name   string
		lk, bk float64
	}{{"roll", ar, br}, {"pitch", ap, bp}, {"yaw", ay, by}} {
		if math.Float64bits(c.lk) != math.Float64bits(c.bk) {
			t.Errorf("estimated %s diverged: lockstep %v (%#x) bulk %v (%#x)",
				c.name, c.lk, math.Float64bits(c.lk), c.bk, math.Float64bits(c.bk))
		}
	}
	t.Logf("estimate roll/pitch/yaw: %g/%g/%g at leap start, %g/%g/%g after", r0, p0, y0, br, bp, by)
	if br == r0 && bp == p0 && by == y0 {
		t.Error("estimate unchanged across the leap; the replay was not exercised")
	}
	if af, bf := a.IdleFingerprint(), b.IdleFingerprint(); af != bf {
		t.Errorf("fingerprint diverged: lockstep %#x bulk %#x", af, bf)
	}
	if ae, be := a.Sim.EnergyUsedJ(), b.Sim.EnergyUsedJ(); math.Float64bits(ae) != math.Float64bits(be) {
		t.Errorf("energy diverged: lockstep %v bulk %v", ae, be)
	}
	if at, bt := a.Sim.Now(), b.Sim.Now(); !at.Equal(bt) {
		t.Errorf("sim clock diverged: lockstep %v bulk %v", at, bt)
	}
	if at, bt := a.Tel.Tick(), b.Tel.Tick(); at != bt {
		t.Errorf("recorder tick diverged: lockstep %d bulk %d", at, bt)
	}
	la, lb := a.AED.Result(), b.AED.Result()
	if math.Float64bits(la.MaxDivergenceDeg) != math.Float64bits(lb.MaxDivergenceDeg) || la.Pass != lb.Pass {
		t.Errorf("AED verdict diverged: lockstep %+v bulk %+v", la, lb)
	}

	// Fly both again: a divergence the checks above missed (GPS phase,
	// controller timing) splits the positions within a few ticks.
	for _, d := range []*Drone{a, b} {
		if err := d.FC.SetModeNum(mavlink.ModeGuided); err != nil {
			t.Fatal(err)
		}
		if err := d.FC.Arm(); err != nil {
			t.Fatal(err)
		}
		if err := d.FC.Takeoff(TransitAltM); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		a.StepSeconds(0.1)
		b.StepSeconds(0.1)
		if pa, pb := a.Sim.Position(), b.Sim.Position(); pa != pb {
			t.Fatalf("flight diverged at post-leap tick %d: %+v vs %+v", i, pa, pb)
		}
	}
	if a.Sim.AltitudeAGL() < 1 {
		t.Fatalf("drones never lifted off (alt %.2f); divergence check vacuous", a.Sim.AltitudeAGL())
	}
}

// TestBulkAdvanceSettlingZeroAlloc pins a leap that replays a settling
// estimate at 0 allocs: the replay runs once per skipped fast-loop step.
func TestBulkAdvanceSettlingZeroAlloc(t *testing.T) {
	d := landedDrone(t, "idle-settling-alloc")
	r0, p0, _ := d.FC.EstimatedAttitude()
	allocs := testing.AllocsPerRun(5, func() { d.BulkAdvanceTicks(100, 40) })
	if allocs != 0 {
		t.Fatalf("BulkAdvanceTicks allocated %.1f times per call, want 0", allocs)
	}
	if r, p, _ := d.FC.EstimatedAttitude(); r == r0 && p == p0 {
		t.Fatal("estimate did not move during the pin; it measured a frozen leap")
	}
}
