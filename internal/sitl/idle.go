// Idle fast-forward support for the event-driven fleet scheduler.
//
// A drone parked on the ground with zero motor command is a fixed point
// of Step up to two pure accumulators: energyUsedJ (avionics draw) and
// simTime. Every other field either stays bit-identical (velocities,
// rates, attitude, and accelerations are re-zeroed by the ground-contact
// clamp; a stopped motor's thrust is set to exactly zero once its lag has
// decayed below motorStopN) or is never touched (the gust RNG is only
// consumed while gustStd > 0). AdvanceParked exploits this: it replays
// the accumulator arithmetic of n steps, so an event-driven run that
// leaps over parked ticks lands on bit-identical state. The n energy adds
// of a constant draw are replayed in closed form by detmath.RepeatAdd,
// which is bit-identical to the loop of adds and costs O(binades) rather
// than O(n).
//
// Callers must not trust the predicate alone: the event runner combines
// Parked with fingerprint stability across two consecutive ticks (the
// fingerprint covers all non-accumulator state, RNG included), and the
// differential equivalence suite holds the whole construction to
// bit-identical traces against the lockstep oracle.

package sitl

import (
	"math"
	"time"

	"androne/internal/detmath"
)

// Parked reports whether the simulation is structurally eligible for a
// bulk idle advance: resting on the ground, zero commanded thrust, no
// pending squall expiry (windUntil compares against the sim clock, which
// keeps accumulating during a leap), and no gust process consuming the
// RNG. It deliberately does not prove the state is a fixed point — the
// caller pairs it with fingerprint stability.
func (s *Sim) Parked() bool {
	return s.onGround &&
		s.windUntil.IsZero() &&
		s.gustStd == 0 &&
		s.motorCmd == [4]float64{}
}

// Fingerprint hashes every simulation field except the two pure
// accumulators (simTime, energyUsedJ). Two equal fingerprints one tick
// apart mean the intervening 40 fast-loop steps were the identity on all
// hashed state — the event runner's entry ticket for a bulk leap.
func (s *Sim) Fingerprint() uint64 {
	h := fpInit
	for _, f := range [...]float64{
		s.n, s.e, s.d, s.vn, s.ve, s.vd,
		s.roll, s.pitch, s.yaw, s.p_, s.q_, s.r_,
		s.motorCmd[0], s.motorCmd[1], s.motorCmd[2], s.motorCmd[3],
		s.motorThrust[0], s.motorThrust[1], s.motorThrust[2], s.motorThrust[3],
		s.motorEff[0], s.motorEff[1], s.motorEff[2], s.motorEff[3],
		s.an, s.ae, s.ad,
		s.windMeanN, s.windMeanE, s.gustStd, s.gustN, s.gustE,
		s.powerW,
	} {
		h = fpMix(h, math.Float64bits(f))
	}
	h = fpMix(h, uint64(s.windUntil.UnixNano()))
	if s.windUntil.IsZero() {
		h = fpMix(h, 1)
	}
	if s.onGround {
		h = fpMix(h, 2)
	}
	h = fpMix(h, s.rng.state)
	return h
}

// AdvanceParked fast-forwards a parked simulation by steps fast-loop
// iterations of dt seconds, replaying exactly the accumulator arithmetic
// Step would perform: energyUsedJ ends where steps of the same per-step
// float add would leave it (powerW is constant while parked — thrust is
// exactly zero, so only the avionics draw remains), and simTime advances
// by the same per-step duration. All other state is left untouched,
// which is exactly what Step would do.
func (s *Sim) AdvanceParked(steps int, dt float64) {
	if steps <= 0 || dt <= 0 {
		return
	}
	s.energyUsedJ = detmath.RepeatAdd(s.energyUsedJ, s.powerW*dt, steps)
	stepDur := time.Duration(dt * float64(time.Second))
	s.simTime = s.simTime.Add(time.Duration(steps) * stepDur)
}

// FNV-1a folding for state fingerprints.
const (
	fpInit  uint64 = 14695981039346656037
	fpPrime uint64 = 1099511628211
)

func fpMix(h, v uint64) uint64 {
	h ^= v
	return h * fpPrime
}
