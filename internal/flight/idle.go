// Idle fast-forward support for the event-driven fleet scheduler.
//
// A disarmed controller over a motionless world is a fixed point of Step
// up to three counters: timeS, loopCount, and stepCount. The estimator
// re-derives exactly the same attitude from the frozen IMU (pre-takeoff
// the estimate is exactly zero and every correction term rounds to
// zero), the 50 Hz GPS branch rewrites position/velocity fields with the
// same frozen values, the fence check and battery failsafe both early
// out while disarmed, and the motor command published is all-zeros —
// idempotent against a parked simulation. AdvanceDisarmed replays just
// the counters with the exact per-step arithmetic.
//
// The AED monitor is the one deliberate divergence: lockstep folds one
// sample per fast-loop step into it while a bulk leap folds none. The
// skipped samples would repeat the last stepped one (estimate and truth
// are both frozen), so they could only lengthen an excursion already
// open on a parked drone. The verdict never feeds the trace hash, so the
// determinism contract is unaffected (DESIGN.md "Event-driven
// scheduling").

package flight

import "math"

// Disarmed reports whether the controller is structurally eligible for a
// bulk idle advance. Armed controllers run control math whose integrator
// updates are never identity.
func (c *Controller) Disarmed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return !c.armed
}

// Fingerprint hashes every controller field except the pure step
// counters (timeS, loopCount, stepCount) and the attached flight log or
// AED monitor. Equal fingerprints one tick apart mean the intervening
// steps changed nothing the control law can later observe — paired with
// sitl.Sim.Fingerprint it gates the event runner's bulk leaps.
func (c *Controller) Fingerprint() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	h := fpInit
	for _, f := range [...]float64{
		c.hoverFrac,
		c.estRoll, c.estPitch, c.estYaw,
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
// iterations of dt seconds, replaying exactly the counter arithmetic
// Step would perform: timeS grows by the same per-step float add,
// loopCount by one per step (the 50 Hz GPS phase is preserved because
// callers leap whole harness ticks of 40 steps, and 40 ≡ 0 mod 8), and
// the atomic stepCount by one per step so latency-sampling phase
// survives the leap. No samples reach the flight log or AED monitor.
func (c *Controller) AdvanceDisarmed(steps int, dt float64) {
	if steps <= 0 || dt <= 0 {
		return
	}
	c.stepCount.Add(uint64(steps))
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.timeS
	for i := 0; i < steps; i++ {
		t += dt
	}
	c.timeS = t
	c.loopCount += uint64(steps)
}

// FNV-1a folding for state fingerprints (mirrors internal/sitl).
const (
	fpInit  uint64 = 14695981039346656037
	fpPrime uint64 = 1099511628211
)

func fpMix(h, v uint64) uint64 {
	h ^= v
	return h * fpPrime
}
