package flight

import (
	"math"
	"testing"

	"androne/internal/devices"
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

// TestAdvanceDisarmedMatchesSteps holds AdvanceDisarmed to the estimator
// it replays: AdvanceDisarmed(n) must leave the three estimates, timeS and
// loopCount bit-identical to n calls of updateAttitudeEstimate on the
// recorded inputs, each with its clock add and loop count. The starting
// states cover the per-axis replay's exactness conditions and every way
// out of it.
func TestAdvanceDisarmedMatchesSteps(t *testing.T) {
	const g = 9.81
	level := [3]float64{0, 0, -g}
	noGyro := [3]float64{}
	neg0 := math.Copysign(0, -1)
	cases := []struct {
		name        string
		est         [3]float64 // roll, pitch, yaw
		accel, gyro [3]float64
		hdgDeg      float64
	}{
		{"heading 0", [3]float64{0.02, -0.015, 0.3}, level, noGyro, 0},
		{"heading 359.99", [3]float64{-0.01, 0.004, -0.2}, level, noGyro, 359.99},
		{"estimates ±0, gyro ±0", [3]float64{neg0, 0.01, 0}, level, [3]float64{neg0, 0, neg0}, 0},
		{"estimates ±0, mixed", [3]float64{0.02, neg0, -0.1}, [3]float64{neg0, 0, -g}, [3]float64{0, neg0, 0}, 90},
		{"pitch at +1.2", [3]float64{0.01, 1.2, 1}, [3]float64{g * math.Sin(1.3), 0, -g * math.Cos(1.3)}, noGyro, 45},
		{"pitch at -1.2", [3]float64{0.01, -1.2, 1}, [3]float64{g * math.Sin(-0.5), 0, -g * math.Cos(-0.5)}, noGyro, 45},
		{"roll near -π", [3]float64{-3.14, 0.01, 2}, [3]float64{0, -g * math.Sin(3.1), -g * math.Cos(3.1)}, noGyro, 170},
		{"roll near +π", [3]float64{3.14, 0.01, -2}, [3]float64{0, -g * math.Sin(-3.1), -g * math.Cos(-3.1)}, noGyro, 190},
		{"tilt gate closed by |g|", [3]float64{0.02, -0.01, 0.5}, [3]float64{0, 0, -9.5}, noGyro, 10},
		{"tilt gate closed by rate", [3]float64{0.02, -0.01, 0.5}, level, [3]float64{0.1, 0, 0}, 10},
		{"non-zero gyro", [3]float64{0.02, -0.01, 0.5}, level, [3]float64{0, 0, 1e-3}, 10},
		{"NaN accel", [3]float64{0.02, -0.01, 0.5}, [3]float64{math.NaN(), 0, -g}, noGyro, 10},
		{"-0 roll, tilt gate closed", [3]float64{neg0, 0.01, 0.5}, [3]float64{0, 0, -9.5}, noGyro, 0},
		{"-0 pitch, tilt gate closed", [3]float64{0.02, neg0, 0.5}, [3]float64{0, 0, -9.5}, noGyro, 0},
		{"-0 estimates, tilt gate closed", [3]float64{neg0, neg0, neg0}, [3]float64{0, 0, -9.5}, noGyro, 0},
		{"NaN roll", [3]float64{math.NaN(), -0.01, 0.5}, level, noGyro, 10},
		{"NaN pitch", [3]float64{0.02, math.NaN(), 0.5}, level, noGyro, 10},
		{"NaN yaw", [3]float64{0.02, -0.01, math.NaN()}, level, noGyro, 10},
		{"NaN heading", [3]float64{0.02, -0.01, 0.5}, level, noGyro, math.NaN()},
		{"pitch outside the clamp", [3]float64{0.02, 1.5, 0.5}, level, noGyro, 10},
	}
	for _, tc := range cases {
		for _, n := range []int{1, 40, 4000, 239_480} {
			set := func(c *Controller) {
				c.estRoll, c.estPitch, c.estYaw = tc.est[0], tc.est[1], tc.est[2]
				c.idleIn = [7]float64{tc.accel[0], tc.accel[1], tc.accel[2], tc.gyro[0], tc.gyro[1], tc.gyro[2], tc.hdgDeg}
				c.timeS, c.loopCount = 3601.2575, 1_440_503
			}
			lk := NewVehicle(home, t.Name()).Controller
			bk := NewVehicle(home, t.Name()).Controller
			set(lk)
			set(bk)
			in := lk.idleIn
			imu := devices.IMUSample{AccelX: in[0], AccelY: in[1], AccelZ: in[2], GyroX: in[3], GyroY: in[4], GyroZ: in[5]}
			for i := 0; i < n; i++ {
				lk.updateAttitudeEstimate(imu, in[6], FastLoopDT)
				lk.timeS += FastLoopDT
				lk.loopCount++
			}
			bk.AdvanceDisarmed(n, FastLoopDT)
			for _, v := range []struct {
				name   string
				lk, bk float64
			}{
				{"roll", lk.estRoll, bk.estRoll}, {"pitch", lk.estPitch, bk.estPitch},
				{"yaw", lk.estYaw, bk.estYaw}, {"timeS", lk.timeS, bk.timeS},
			} {
				if !sameBits(v.lk, v.bk) {
					t.Errorf("%s, n=%d: %s diverged: steps %v (%#x) leap %v (%#x)", tc.name, n, v.name,
						v.lk, math.Float64bits(v.lk), v.bk, math.Float64bits(v.bk))
				}
			}
			if lk.loopCount != bk.loopCount {
				t.Errorf("%s, n=%d: loopCount diverged: steps %d leap %d", tc.name, n, lk.loopCount, bk.loopCount)
			}
			if tc.name == "heading 0" && n == 239_480 {
				if y := lk.estYaw; y == 0 || math.Abs(y) >= 0x1p-1022 {
					t.Errorf("heading 0: yaw estimate %v after the hold is not subnormal; the case is vacuous", y)
				}
			}
		}
	}
}
