package flight

import (
	"math"
	"math/rand/v2"
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

// TestAdvanceDisarmedLevelKernel holds the leap's level-reference kernel
// (levelDecay) to the per-axis replay it stands in for: replayCorrections
// must leave every estimate bit-identical to settle over correctRoll,
// correctPitch and correctYaw. Starts are randomized across binades and
// signs, against level references of every sign, non-level references and
// a closed tilt gate, for n = 0, 1, around the kernel's block size, and
// 10⁶. The long runs cover roll or pitch reaching its fixed point first,
// both reaching it, and a yaw that ends at its subnormal fixed point. A −0
// or NaN estimate and pitch outside the clamp must refuse the replay and
// leave the estimate alone.
func TestAdvanceDisarmedLevelKernel(t *testing.T) {
	neg0 := math.Copysign(0, -1)
	level := func(rollAcc, pitchAcc float64) attitudeRefs {
		return attitudeRefs{tilt: true, rollAcc: rollAcc, pitchAcc: pitchAcc}
	}
	refs := []attitudeRefs{
		level(0, 0), level(neg0, 0), level(0, neg0), level(neg0, neg0), // level
		level(0.01, 0), level(neg0, -0.02), level(-0.3, 0.2), // non-level
		{rollAcc: 0, pitchAcc: 0}, // tilt gate closed
	}
	levelRuns := 0
	check := func(r, p, y float64, ref attitudeRefs, n int) (float64, float64, float64) {
		t.Helper()
		c := &Controller{estRoll: r, estPitch: p, estYaw: y}
		ok := c.replayCorrections(&ref, n)
		refuse := isNegZero(r) || isNegZero(p) || isNegZero(y) || math.IsNaN(r) || !(math.Abs(p) <= maxEstPitch)
		if ok == refuse {
			t.Fatalf("replayCorrections(%v, %v, %v, %+v, %d) = %v, want %v", r, p, y, ref, n, ok, !refuse)
		}
		if !ok {
			if !sameBits(c.estRoll, r) || !sameBits(c.estPitch, p) || !sameBits(c.estYaw, y) {
				t.Fatalf("refused replay from (%v, %v, %v) moved the estimate", r, p, y)
			}
			return r, p, y
		}
		if ref.tilt && ref.rollAcc == 0 && ref.pitchAcc == 0 && math.Abs(r) <= math.Pi {
			levelRuns++
		}
		want := [3]float64{settle(correctRoll, r, &ref, n), settle(correctPitch, p, &ref, n), settle(correctYaw, y, &ref, n)}
		got := [3]float64{c.estRoll, c.estPitch, c.estYaw}
		for i, axis := range [...]string{"roll", "pitch", "yaw"} {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("from (%v, %v, %v), %+v, n=%d: %s = %v (%#x), settle gives %v (%#x)", r, p, y, ref, n,
					axis, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
		return got[0], got[1], got[2]
	}

	rnd := rand.New(rand.NewPCG(35, 1200))
	// angle draws a start within ±limit: any binade from the subnormals
	// up, a uniform value, or an edge.
	angle := func(limit float64, edges ...float64) float64 {
		var v float64
		switch rnd.IntN(4) {
		case 0:
			v = math.Ldexp(1+rnd.Float64(), -rnd.IntN(1075))
		case 1:
			v = rnd.Float64() * limit
		case 2:
			return edges[rnd.IntN(len(edges))]
		default:
			v = rnd.Float64() * 1e-3
		}
		v = min(v, limit)
		if rnd.IntN(2) == 0 {
			v = -v
		}
		return v
	}
	nextPi := math.Nextafter(math.Pi, 4)
	for i := 0; i < 20_000; i++ {
		r := angle(math.Pi, 0, neg0, math.Pi, -math.Pi, nextPi, -nextPi, math.NaN(), math.SmallestNonzeroFloat64)
		p := angle(maxEstPitch, 0, neg0, maxEstPitch, -maxEstPitch, 1.5, math.NaN(), math.SmallestNonzeroFloat64)
		y := angle(math.Pi, 0, neg0, 1e-322, -1e-322)
		ref := refs[rnd.IntN(len(refs))]
		ref.hdg = angle(math.Pi, 0, 1e-300)
		var n int
		switch rnd.IntN(3) {
		case 0:
			n = rnd.IntN(4)
		case 1:
			n = levelBlock - 2 + rnd.IntN(5)
		default:
			n = rnd.IntN(5000)
		}
		check(r, p, y, ref, n)
	}
	if levelRuns < 1000 {
		t.Fatalf("only %d random cases ran the level kernel", levelRuns)
	}

	const long = 1_000_000
	lv := level(neg0, 0) // what a parked drone's accelerometer gives
	if r, p, _ := check(1e-300, 0.5, 0.3, lv, long); r == 0 || math.Abs(r) >= 0x1p-1022 || math.Abs(p) < 0x1p-1022 {
		t.Errorf("roll-first run ended at (%v, %v); want roll at its subnormal fixed point", r, p)
	}
	if r, p, _ := check(-0.5, -1e-300, 0.3, lv, long); p == 0 || math.Abs(p) >= 0x1p-1022 || math.Abs(r) < 0x1p-1022 {
		t.Errorf("pitch-first run ended at (%v, %v); want pitch at its subnormal fixed point", r, p)
	}
	check(1e-310, -1e-310, 0.3, lv, long)
	check(math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0.3, lv, long)
	check(-math.Pi, maxEstPitch, 0.3, lv, long)
	check(math.Pi, -maxEstPitch, 0.3, level(0, neg0), long)
	if _, _, y := check(0.02, -0.015, 0.3, lv, long); y == 0 || math.Abs(y) >= 0x1p-1022 {
		t.Errorf("yaw ended at %v; want its subnormal fixed point", y)
	}
	check(0.02, -0.015, 0.3, level(0.01, 0), long)
	check(0.02, -0.015, 0.3, attitudeRefs{}, long)
	for _, n := range []int{0, 1, long} {
		check(neg0, 0.01, 0.3, lv, n)
		check(0.01, neg0, 0.3, lv, n)
		check(0.01, 0.01, neg0, lv, n)
		check(math.NaN(), 0.01, 0.3, lv, n)
		check(0.01, math.NaN(), 0.3, lv, n)
		check(0.01, 1.5, 0.3, lv, n)
	}
}
