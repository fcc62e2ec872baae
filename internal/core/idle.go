package core

import "androne/internal/flight"

// Idle fast-forward: the drone-level entry points the event-driven
// scheduler uses to leap over parked ticks. See internal/sitl/idle.go
// and internal/flight/idle.go for the per-layer fixed-point arguments. A
// leap costs what the controller's estimate takes to settle, per axis,
// plus O(binades) for the clock and energy accumulators
// (detmath.RepeatAdd), not one stepped iteration per skipped step.

// IdleEligible reports whether the whole stack is structurally eligible
// for a bulk advance: flight controller disarmed and physics parked. The
// caller must additionally observe a stable IdleFingerprint across two
// consecutive ticks before leaping — eligibility alone does not prove
// the state is a fixed point (a just-landed drone still has decaying
// motor thrust for about a second). A settling attitude estimate does not
// block a leap: the fingerprint covers the estimator's inputs, and the
// leap replays the estimate (see internal/flight/idle.go).
func (d *Drone) IdleEligible() bool {
	return d.FC.Disarmed() && d.Sim.Parked()
}

// IdleFingerprint combines the physics and controller fingerprints over
// all non-accumulator state. Equal values one tick apart mean the tick
// was the identity on everything except the counters BulkAdvanceTicks
// replays.
func (d *Drone) IdleFingerprint() uint64 {
	s := d.Sim.Fingerprint()
	f := d.FC.Fingerprint()
	// Rotate one side so swapped sim/controller words cannot cancel.
	return s ^ (f<<17 | f>>47)
}

// BulkAdvanceTicks fast-forwards n harness ticks of stepsPerTick
// fast-loop steps each, bit-identically to n StepSeconds ticks over a
// fixed-point state: physics and controller replay their accumulator
// arithmetic and the controller its settling estimate exactly, and the
// flight recorder's tick counter advances by n so later events carry the
// same timestamps. The per-tick Proxy.Tick and Driver.FlushMetrics calls
// are skipped — both only fold metric shards when no VFC is recovering
// (the caller's quiescence condition), and the deferred counts fold on
// the next stepped tick.
func (d *Drone) BulkAdvanceTicks(n, stepsPerTick int) {
	if n <= 0 || stepsPerTick <= 0 {
		return
	}
	steps := n * stepsPerTick
	d.Sim.AdvanceParked(steps, flight.FastLoopDT)
	d.FC.AdvanceDisarmed(steps, flight.FastLoopDT)
	d.Tel.AdvanceTicks(n)
}
