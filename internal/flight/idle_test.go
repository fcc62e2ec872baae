package flight

import (
	"math"
	"testing"

	"androne/internal/geo"
	"androne/internal/mavlink"
)

// TestDisarmedPredicate: an armed controller is never eligible for a
// bulk advance, whatever the airframe is doing.
func TestDisarmedPredicate(t *testing.T) {
	v := prepare(t)
	if !v.Controller.Disarmed() {
		t.Fatal("fresh controller not Disarmed")
	}
	takeoffTo(t, v, 10)
	if v.Controller.Disarmed() {
		t.Error("Disarmed while armed and flying")
	}
}

// TestAdvanceDisarmedBitExact proves the controller half of the leap
// contract: a disarmed controller over a parked sim, fast-forwarded with
// AdvanceDisarmed + AdvanceParked, is bit-identical to one that stepped
// every fast-loop iteration — including the later flight it flies.
func TestAdvanceDisarmedBitExact(t *testing.T) {
	a := NewVehicle(home, t.Name())
	b := NewVehicle(home, t.Name())
	a.StepSeconds(0.5)
	b.StepSeconds(0.5)

	fp := b.Controller.Fingerprint()
	if fp != b.Controller.Fingerprint() {
		t.Fatal("Fingerprint not deterministic")
	}
	a.StepSeconds(0.1)
	b.StepSeconds(0.1)
	if b.Controller.Fingerprint() != fp {
		t.Fatal("disarmed fingerprint not stable across a tick")
	}

	const steps = 4000 // whole harness ticks: 40 ≡ 0 mod 8 keeps GPS phase
	a.StepSeconds(float64(steps) * FastLoopDT)
	b.Controller.AdvanceDisarmed(0, FastLoopDT) // no-op guards
	b.Controller.AdvanceDisarmed(steps, 0)
	b.Sim.AdvanceParked(steps, FastLoopDT)
	b.Controller.AdvanceDisarmed(steps, FastLoopDT)

	if a.Controller.Fingerprint() != b.Controller.Fingerprint() {
		t.Error("controller fingerprints diverge after leap")
	}
	if a.Sim.Fingerprint() != b.Sim.Fingerprint() {
		t.Error("sim fingerprints diverge after leap")
	}

	for _, v := range []*Vehicle{a, b} {
		c := v.Controller
		if err := c.SetModeNum(mavlink.ModeGuided); err != nil {
			t.Fatal(err)
		}
		if err := c.Arm(); err != nil {
			t.Fatal(err)
		}
		if err := c.Takeoff(12); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 800; i++ {
		a.StepSeconds(FastLoopDT)
		b.StepSeconds(FastLoopDT)
		if aa, ba := a.Sim.AltitudeAGL(), b.Sim.AltitudeAGL(); aa != ba {
			t.Fatalf("step %d: altitude diverged %v vs %v", i, aa, ba)
		}
	}
	if alt := a.Sim.AltitudeAGL(); math.Abs(alt) < 1 {
		t.Fatal("comparison vacuous: drone never left the ground")
	}
}

// TestFingerprintSoundness checks both sides of the input fingerprint.
// A noisy gyro feeds the estimator new inputs every step, so a parked,
// disarmed vehicle with one must never look stable (a leap would replay
// stale inputs). A noiseless vehicle that has just landed must look
// stable while its estimate is still settling: that is the state the
// leap's estimator replay exists for.
func TestFingerprintSoundness(t *testing.T) {
	noisy := prepare(t)
	noisy.Controller.sensors.(*DirectSensors).Imu.GyroNoiseStd = 0.002
	noisy.StepSeconds(0.5)
	last := noisy.Controller.Fingerprint()
	for i := 0; i < 50; i++ {
		noisy.StepSeconds(0.1)
		if !noisy.Controller.Disarmed() || !noisy.Sim.Parked() {
			t.Fatal("noisy vehicle is not parked and disarmed; the check is vacuous")
		}
		fp := noisy.Controller.Fingerprint()
		if fp == last {
			t.Fatalf("tick %d: fingerprint stable under gyro noise", i)
		}
		last = fp
	}

	v := prepare(t)
	takeoffTo(t, v, 8)
	hop := geo.Position{LatLon: geo.OffsetNE(home.LatLon, 25, 10), Alt: 8}
	if err := v.Controller.GotoPosition(hop, 0); err != nil {
		t.Fatal(err)
	}
	v.StepSeconds(10)
	if err := v.Controller.SetModeNum(mavlink.ModeLand); err != nil {
		t.Fatal(err)
	}
	if !v.RunUntil(func() bool { return v.Controller.Disarmed() }, 60) {
		t.Fatal("vehicle never landed and disarmed")
	}
	last = v.Controller.Fingerprint()
	for i := 0; i < 200; i++ {
		r0, p0, _ := v.Controller.EstimatedAttitude()
		v.StepSeconds(0.1)
		fp := v.Controller.Fingerprint()
		if r, p, _ := v.Controller.EstimatedAttitude(); fp == last && (r != r0 || p != p0) {
			return
		}
		last = fp
	}
	t.Fatal("no tick after landing had a stable fingerprint and a moving estimate")
}
