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
// the same inputs. AdvanceDisarmed replays the counters with the exact
// per-step arithmetic and the estimate by running the one estimator,
// updateAttitudeEstimate, on the recorded inputs once per skipped step,
// so it is exact by construction. A noisy sensor changes the recorded
// inputs every step, so its fingerprint never settles and it never leaps.
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
// iterations of dt seconds, replaying exactly what Step would do: the
// estimator runs once per step on the recorded inputs until a step
// leaves the estimate bit-identical (from there on it is a fixed point,
// so a pre-flight leap pays for one call), timeS grows by the same
// per-step float add, loopCount by one per step (the 50 Hz GPS phase is
// preserved because callers leap whole harness ticks of 40 steps, and
// 40 ≡ 0 mod 8), and stepCount by one per step so latency-sampling
// phase survives the leap. No samples reach the AED monitor. The leap
// ends by publishing Status, as the last skipped step would have.
func (c *Controller) AdvanceDisarmed(steps int, dt float64) {
	if steps <= 0 || dt <= 0 {
		return
	}
	c.stepCount += uint64(steps)
	in := &c.idleIn
	imu := devices.IMUSample{AccelX: in[0], AccelY: in[1], AccelZ: in[2], GyroX: in[3], GyroY: in[4], GyroZ: in[5]}
	for i := 0; i < steps; i++ {
		r, p, y := c.estRoll, c.estPitch, c.estYaw
		c.updateAttitudeEstimate(imu, in[6], dt)
		if sameBits(r, c.estRoll) && sameBits(p, c.estPitch) && sameBits(y, c.estYaw) {
			break
		}
	}
	t := c.timeS
	for i := 0; i < steps; i++ {
		t += dt
	}
	c.timeS = t
	c.loopCount += uint64(steps)
	c.publishStatus()
}

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
