// Idle fast-forward support for the event-driven fleet scheduler.
//
// A disarmed controller over a motionless world is a fixed point of Step
// up to three counters (timeS, loopCount, stepCount) and the attitude
// estimate. The 50 Hz GPS branch rewrites position/velocity fields with
// the same frozen values, the fence check and battery failsafe both early
// out while disarmed, and the motor command published is all-zeros —
// idempotent against a parked simulation.
//
// The estimate need not be frozen. After a landing the accelerometer
// correction pulls roll and pitch toward level by a factor (1 − 0.0005)
// per step, a decay that outlasts any hold. But while disarmed the
// estimator is a pure map of (estimate, inputs), and nothing else on the
// disarmed step reads the estimate except the AED monitor. So the
// disarmed step records the estimator's inputs, and Fingerprint hashes
// those inputs in place of the estimate: equal fingerprints one tick
// apart over a parked sim mean every skipped step would apply that map to
// the same inputs, and AdvanceDisarmed replays the map.
//
// The replay is exact without paying for the whole map. The estimator is
// a gyro step followed by per-axis corrections, each a pure function of
// its own axis and of references computed once from the sample
// (attitudeRefsOf). A parked drone's recorded gyro rates are ±0, and then
// the gyro step adds ±0 to each estimate: the identity, unless the
// estimate is −0 (replayCorrections states the conditions). So the leap
// computes the references once and runs each axis's correction alone, in
// registers, until that axis reaches its bit-exact fixed point. Yaw
// settles: facing north the magnetometer reads a heading of exactly 0,
// and the yaw estimate decays by 0.98 per step through the subnormals to
// a fixed point of about ±1.2e-322. Roll and pitch do not settle within
// a hold, so they cost a few flops per skipped step instead of a full
// estimator step with its trig. A non-zero gyro rate, a −0 estimate, a
// non-finite roll, or pitch outside its clamp takes the full estimator
// step instead, until the estimate stops changing. A noisy sensor
// changes the recorded inputs every step, so its fingerprint never
// settles and it never leaps.
//
// The AED monitor is the one deliberate divergence: lockstep folds one
// sample per fast-loop step into it while a bulk leap folds none. With
// the truth frozen, the skipped samples only converge toward it, so they
// cannot raise MaxDivergenceDeg; they could only lengthen an excursion
// still open at the leap. The verdict never feeds the trace hash, so the
// determinism contract is unaffected (DESIGN.md "Event-driven
// scheduling").

package flight

import (
	"math"

	"androne/internal/detmath"
	"androne/internal/devices"
)

// Disarmed reports whether the controller is structurally eligible for a
// bulk idle advance. Armed controllers run control math whose integrator
// updates are never identity.
func (c *Controller) Disarmed() bool {
	return !c.armed
}

// Fingerprint hashes every controller field except the pure step
// counters (timeS, loopCount, stepCount), the attached AED monitor, the
// published Status, and the attitude estimate, which it replaces with the
// estimator inputs of the latest disarmed step. Equal fingerprints one
// tick apart mean the intervening steps changed nothing the control law
// can later observe except what AdvanceDisarmed replays — paired with
// sitl.Sim.Fingerprint it gates the event runner's bulk leaps.
func (c *Controller) Fingerprint() uint64 {
	h := fpInit
	for _, f := range c.idleIn {
		h = fpMix(h, math.Float64bits(f))
	}
	for _, f := range [...]float64{
		c.hoverFrac,
		c.posN, c.posE, c.alt,
		c.velN, c.velE, c.velD,
		c.tgtN, c.tgtE, c.tgtAlt, c.tgtYaw,
		c.speedLimit, c.takeoffAlt,
		c.iRateP, c.iRateQ, c.iRateR, c.iVelZ,
		c.battFailsafeFrac, c.rtlAltM,
	} {
		h = fpMix(h, math.Float64bits(f))
	}
	h = fpMix(h, uint64(c.mode))
	h = fpMix(h, uint64(c.missionIdx))
	h = fpMix(h, uint64(len(c.mission)))
	h = fpMix(h, uint64(c.uploadTotal))
	h = fpMix(h, uint64(c.uploadNext))
	h = fpMix(h, uint64(len(c.uploadItems)))
	for i, b := range [...]bool{
		c.armed, c.haveFix, c.landing, c.uploading,
		c.breached, c.battFailsafed, c.fence != nil,
	} {
		if b {
			h = fpMix(h, uint64(i)+1)
		}
	}
	return h
}

// AdvanceDisarmed fast-forwards a disarmed controller by steps fast-loop
// iterations of dt seconds, replaying exactly what Step would do to the
// estimate and the counters. While the recorded gyro rates are ±0 the
// estimate replays per axis (replayCorrections); otherwise the full
// estimator step runs until the estimate is a fixed point, so a
// pre-flight leap pays for at most one step. timeS ends where the same
// per-step float adds would leave it, computed in closed form
// (detmath.RepeatAdd); loopCount grows by one per step (the 50 Hz GPS
// phase is preserved because callers leap whole harness ticks of 40
// steps, and 40 ≡ 0 mod 8), and stepCount by one per step so
// latency-sampling phase survives the leap. No samples reach the AED
// monitor. The leap ends by publishing Status, as the last skipped step
// would have.
func (c *Controller) AdvanceDisarmed(steps int, dt float64) {
	if steps <= 0 || dt <= 0 {
		return
	}
	c.stepCount += uint64(steps)
	in := &c.idleIn
	imu := devices.IMUSample{AccelX: in[0], AccelY: in[1], AccelZ: in[2], GyroX: in[3], GyroY: in[4], GyroZ: in[5]}
	ref := attitudeRefsOf(imu, in[6])
	quiet := imu.GyroX == 0 && imu.GyroY == 0 && imu.GyroZ == 0
	for left := steps; left > 0; left-- {
		if quiet && c.replayCorrections(&ref, left) {
			break
		}
		r, p, y := c.estRoll, c.estPitch, c.estYaw
		c.updateAttitudeEstimate(imu, in[6], dt)
		if sameBits(r, c.estRoll) && sameBits(p, c.estPitch) && sameBits(y, c.estYaw) {
			break
		}
	}
	c.timeS = detmath.RepeatAdd(c.timeS, dt, steps)
	c.loopCount += uint64(steps)
	c.publishStatus()
}

// replayCorrections advances the estimate by n steps of a sample whose
// gyro rates are all ±0, running only the per-axis corrections, and
// reports whether the estimate allowed it.
//
// With roll finite and pitch within its clamp, the sines, cosines and
// tangent in the gyro step are finite, so each of its terms is a ±0 rate
// times finite factors: ±0. Adding ±0 leaves an estimate unchanged unless
// it is −0 (−0 + +0 is +0), so with no estimate at −0 the gyro step is the
// identity and the corrections are the whole estimator. Those conditions,
// checked once, hold for all n steps: the corrections keep roll finite
// (its reference is finite whenever the tilt gate is open) and pitch
// clamped, and a round-to-nearest sum is −0 only when both addends are.
// Each axis runs until its own bit-exact fixed point.
func (c *Controller) replayCorrections(ref *attitudeRefs, n int) bool {
	r, p, y := c.estRoll, c.estPitch, c.estYaw
	bounded := math.Abs(r) <= math.MaxFloat64 && math.Abs(p) <= maxEstPitch // false for NaN too
	if !bounded || isNegZero(r) || isNegZero(p) || isNegZero(y) {
		return false
	}
	c.estRoll = settle(correctRoll, r, ref, n)
	c.estPitch = settle(correctPitch, p, ref, n)
	c.estYaw = settle(correctYaw, y, ref, n)
	return true
}

// settle applies one axis's correction to v n times, or until v is its
// bit-exact fixed point.
func settle(correct func(float64, *attitudeRefs) float64, v float64, ref *attitudeRefs, n int) float64 {
	for i := 0; i < n; i++ {
		next := correct(v, ref)
		if sameBits(next, v) {
			break
		}
		v = next
	}
	return v
}

// isNegZero reports whether v is −0.
func isNegZero(v float64) bool { return math.Float64bits(v) == 1<<63 }

// sameBits reports bit equality, which tells -0 from +0 and matches NaNs.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// FNV-1a folding for state fingerprints (mirrors internal/sitl).
const (
	fpInit  uint64 = 14695981039346656037
	fpPrime uint64 = 1099511628211
)

func fpMix(h, v uint64) uint64 {
	h ^= v
	return h * fpPrime
}
