// Event-driven run mode: instead of unconditionally stepping every
// harness tick, the runner paces itself through a deterministic priority
// queue of timestamped wakeups (internal/sched) — takeoff climb checks,
// waypoint-arrival probes, dwell metering, RTL progress, ground-hold
// expiry, and the exact due ticks of the fault plan. Between the current
// tick and the next wakeup the runner leaps over runs of provably idle
// ticks with core.Drone.BulkAdvanceTicks, which replays the accumulator
// arithmetic of the skipped ticks bit-exactly.
//
// The equivalence argument has three legs, each enforced by tests:
//
//  1. Leaps happen only when the stack is at a fixed point of the tick:
//     the drone is structurally idle (disarmed controller over a parked
//     airframe), the idle fingerprint — every physics and controller
//     field except the pure accumulators and the attitude estimate, with
//     the estimator's inputs in its place — was unchanged by the previous
//     tick, and the harness itself is quiescent (no active or recovering
//     VFC, no induced breach in flight, no pending fault retry). Under
//     those conditions a stepped tick changes only the accumulators and
//     the settling estimate, which BulkAdvanceTicks replays, and the
//     per-tick proxy flush, pilot, breach relay, and checker calls are
//     all no-ops.
//  2. Wakeups only bound leaps, so a spurious wakeup costs one stepped
//     tick, never correctness; a missing wakeup could leap past a due
//     time, so fault due ticks are computed with the same float
//     comparison the lockstep faultDue evaluates.
//  3. The differential suite (equivalence_test.go) runs every builtin
//     and sabotaged scenario in both modes across seeds and requires
//     bit-identical traces, violations, and tick counts.
package simharness

import (
	"fmt"

	"androne/internal/core"
	"androne/internal/flight"
	"androne/internal/mavproxy"
	"androne/internal/sched"
)

// Mode selects how the Runner advances simulation time.
type Mode int

const (
	// ModeLockstep steps every harness tick unconditionally — the
	// original runner, kept as the differential suite's oracle.
	ModeLockstep Mode = iota
	// ModeEvent advances through scheduled wakeups and leaps over
	// provably idle ticks. Must be trace-identical to ModeLockstep.
	ModeEvent
)

// stepsPerTick is the number of fast-loop steps in one harness tick
// (exact: TickS and FastLoopHz are untyped constants, 0.1 * 400 = 40),
// matching what core.Drone.StepSeconds(TickS) executes.
const stepsPerTick = int(TickS * flight.FastLoopHz)

// Wakeup kinds. Arg carries the fault index for wakeFault.
const (
	wakeHoldEnd uint8 = iota // a ground-hold phase reaches its end tick
	wakeFault                // a fault plan entry's exact due tick
	wakePhase                // + core.Phase: one flight tick of that phase
)

// tickOnce advances exactly one harness tick of flight phase p. In
// lockstep mode it steps directly; in event mode it schedules a next-tick
// wakeup and advances through the queue, so every active-phase tick flows
// through the same scheduler machinery as the bulk leaps.
func (r *Runner) tickOnce(p core.Phase) {
	if r.mode != ModeEvent {
		r.stepTick()
		return
	}
	r.queue.Schedule(uint64(r.tick+1), wakePhase+uint8(p), 0)
	r.advanceToNextWakeup()
}

// advanceToNextWakeup advances the stack to the earliest scheduled
// wakeup's tick and pops it. Ticks strictly before the wakeup are leapt
// over in bulk when the drone is provably idle; the wakeup tick itself is
// always stepped, so whatever the wakeup was scheduled to observe (a
// fault coming due, a hold ending) happens under a full tick.
//
//vet:detpath event-mode time advance feeds the same trace hashes as lockstep
func (r *Runner) advanceToNextWakeup() (sched.Wakeup, bool) {
	w, _, ok := r.queue.Peek()
	if !ok {
		return sched.Wakeup{}, false
	}
	target := int(w.Due)
	for r.tick < target {
		if k := target - 1 - r.tick; k > 0 && r.fpStable && r.drone.IdleEligible() && r.quiescent() {
			r.drone.BulkAdvanceTicks(k, stepsPerTick)
			r.tick += k
			// The leap is the identity on all fingerprinted state, so
			// stability carries over the gap; the loop now steps the
			// final tick before the wakeup.
			continue
		}
		r.stepTick()
		r.holdStepped++
		r.noteFingerprint()
	}
	out, _ := r.queue.Pop()
	return out, true
}

// noteFingerprint records whether the tick that just ran was the
// identity on all drone state a leap does not replay. Two equal
// fingerprints in a row are the entry ticket for a bulk leap; any state
// change (motor thrust still decaying after landing, a noisy sensor
// feeding the estimator new inputs, a fault mutating physics) breaks
// stability and forces per-tick stepping until the stack settles again.
func (r *Runner) noteFingerprint() {
	fp := r.drone.IdleFingerprint()
	r.fpStable = fp == r.lastFP
	r.lastFP = fp
}

// quiescent reports whether skipping a tick's non-stepping work — proxy
// metric folds, fault retries, the scripted pilot, breach relay, and the
// invariant checkers — is the identity. All of those only act on active
// or recovering VFCs, open breaches, induced pushes, or pending faults.
func (r *Runner) quiescent() bool {
	for _, f := range r.faults {
		if !f.fired && f.pending {
			return false
		}
	}
	for _, name := range r.names {
		if r.meta[name].pushTarget != nil {
			return false
		}
		vd, err := r.drone.VDC.Get(name)
		if err != nil {
			continue // saved to the VDR and not restored; inert
		}
		if open, _ := vd.Breaches(); open || vd.VFC.State() == mavproxy.VFCActive || vd.VFC.Recovering() {
			return false
		}
	}
	return true
}

// holdTicks converts a hold duration to whole ticks identically in both
// modes (plain float division would put 600/0.1 just under 6000).
func holdTicks(seconds float64) int {
	return int(seconds/TickS + 0.5)
}

// hold parks the run for the given sim seconds — the duty-cycle idle
// between flights — then traces a "<when> ground hold" event. Lockstep
// pays for every tick; event mode schedules the hold's end and the exact
// due ticks of any fault landing inside the window, then leaps the gaps.
func (r *Runner) hold(seconds float64, when string) {
	if seconds <= 0 {
		return
	}
	defer r.event("hold", "", fmt.Sprintf("%s ground hold %.0fs", when, seconds))
	n := holdTicks(seconds)
	if n <= 0 {
		return
	}
	end := r.tick + n
	if r.mode != ModeEvent {
		for r.tick < end {
			r.stepTick()
		}
		return
	}
	ids := make([]sched.ID, 0, 1+len(r.faults))
	ids = append(ids, r.queue.Schedule(uint64(end), wakeHoldEnd, 0))
	ids = append(ids, r.scheduleFaultWakeups(end)...)
	r.holdStepped = 0
	for r.tick < end {
		if _, ok := r.advanceToNextWakeup(); !ok {
			break // defensive: the hold-end wakeup is always scheduled
		}
	}
	for _, id := range ids {
		r.queue.Cancel(id) // already-fired IDs are stale and miss exactly
	}
}

// scheduleFaultWakeups schedules one wakeup per unfired fault that comes
// due inside the hold window, at its exact lockstep due tick. Pending
// faults (due but awaiting an eligible moment) need no wakeup: they
// block quiescence instead, so every tick is stepped and retried.
func (r *Runner) scheduleFaultWakeups(end int) []sched.ID {
	var ids []sched.ID
	for i, f := range r.faults {
		if f.fired || f.pending {
			continue
		}
		due, ok := r.faultDueTick(f)
		if !ok || due > end {
			continue
		}
		if due <= r.tick {
			due = r.tick + 1
		}
		ids = append(ids, r.queue.Schedule(uint64(due), wakeFault, uint64(i)))
	}
	return ids
}

// faultDueTick computes the smallest tick at which faultDue(f) becomes
// true, verifying candidates with the identical float comparison so the
// event runner fires faults on exactly the lockstep tick. ok=false when
// the fault's anchor clock is not running yet (pre-liftoff, or no dwell
// grant) — such a fault cannot come due during the current hold.
func (r *Runner) faultDueTick(f *faultState) (int, bool) {
	anchor, ok := r.faultAnchor(f)
	if !ok {
		return 0, false
	}
	due := func(t int) bool { return float64(t-anchor)*TickS >= f.AtS }
	t := anchor + int(f.AtS/TickS)
	if t < anchor {
		t = anchor
	}
	for !due(t) {
		t++
	}
	for t > anchor && due(t-1) {
		t--
	}
	return t, true
}

// RunScenarioMode builds the stack and runs sc under the given
// time-advance mode. ModeEvent must produce a Result bit-identical to
// ModeLockstep — same trace, same violations, same tick count — which
// the differential equivalence suite enforces for every builtin.
//
//vet:detpath event-driven scenario runs feed the same trace hashes as lockstep
func RunScenarioMode(sc *Scenario, mode Mode) (*Result, error) {
	return RunScenarioOver(sc, mode, nil)
}

// RunScenarioOver runs sc like RunScenarioMode but over a caller-supplied
// cloud environment (nil means a private one). Sharing an environment lets
// many scenario runs save into one storage/VDR pair — the load harness's
// churn workload saves every run's checkpoints through one content-
// addressed blob store to make the cross-run dedup ratio measurable.
func RunScenarioOver(sc *Scenario, mode Mode, env *core.CloudEnv) (*Result, error) {
	r, err := newModeRunner(sc, mode, env)
	if err != nil {
		return nil, err
	}
	return r.Run()
}

// newModeRunner builds the runner RunScenarioOver runs.
func newModeRunner(sc *Scenario, mode Mode, env *core.CloudEnv) (*Runner, error) {
	r, err := NewRunner(sc)
	if err != nil {
		return nil, err
	}
	if env != nil {
		r.env = env
	}
	r.mode = mode
	if mode == ModeEvent {
		r.queue = sched.New()
	}
	return r, nil
}
