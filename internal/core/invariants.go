package core

import (
	"errors"
	"fmt"
	"strings"

	"androne/internal/mavlink"
	"androne/internal/mavproxy"
)

// ErrInvariant marks a flight on which one of the paper's per-tick safety
// invariants failed. ExecuteRoute wraps it around the flight's violations.
var ErrInvariant = errors.New("core: flight invariant violated")

// Violation is one failed invariant check. It is the Err of its Violated
// milestone.
type Violation struct {
	Tick    int    `json:"tick"`
	Checker string `json:"checker"`
	Drone   string `json:"drone,omitempty"`
	Detail  string `json:"detail"`
}

func (v Violation) String() string {
	s := fmt.Sprintf("[%05d] %s", v.Tick, v.Checker)
	if v.Drone != "" {
		s += " " + v.Drone
	}
	return s + ": " + v.Detail
}

// Error implements error, so a Violation can ride a milestone's Err.
func (v Violation) Error() string { return v.String() }

// canaryPeriod is how often, in ticks, the whitelist canary probes.
const canaryPeriod = 20

// graceTicks is how long an exhausted virtual drone may keep flight
// control before the allotment guard fires: one second of sim time for
// the orchestrator to notice and revoke.
const graceTicks = 10

// Invariants checks the paper's safety claims once per tick:
//
//   - whitelist canary: a COMPONENT_ARM_DISARM, which is in no template,
//     is offered to every active VFC every canaryPeriod ticks and must
//     never come back accepted (denied commands never reach the
//     controller, so only a probe from outside observes confinement);
//   - allotment guard: an exhausted virtual drone must lose its active VFC
//     within graceTicks;
//   - breach conduct: during a breach recovery the controller is never in
//     LAND and the drone never on the ground, and the recovery ends in
//     loiter.
//
// A clock runs Run right after VDC.RelayBreaches. The zero value is ready;
// its state spans one flight clock's ticks.
type Invariants struct {
	state map[string]*vdCheck
}

// vdCheck is the per-virtual-drone state the checks carry between ticks.
type vdCheck struct {
	over       int  // consecutive ticks exhausted yet in control
	fired      bool // the allotment guard has reported this drone
	recovering bool // a breach recovery was in progress last tick
}

// Run checks tick for the named virtual drones, in the order given, and
// notes each failure on clk as a Violated milestone. Names not on d (a
// drone saved mid-flight) reset their per-tick state.
func (iv *Invariants) Run(d *Drone, tick int, names []string, clk Clock) {
	for _, name := range names {
		if vd := d.VDC.lookup(name); vd != nil {
			iv.check(d, tick, vd, clk)
		} else if st := iv.state[name]; st != nil {
			st.over, st.recovering = 0, false
		}
	}
}

// runAll checks tick for every virtual drone on d, in name order.
func (iv *Invariants) runAll(d *Drone, tick int, clk Clock) {
	for _, vd := range d.VDC.snapshot() {
		iv.check(d, tick, vd, clk)
	}
}

// check runs the checks on one virtual drone.
func (iv *Invariants) check(d *Drone, tick int, vd *VirtualDrone, clk Clock) {
	if iv.state == nil {
		iv.state = make(map[string]*vdCheck)
	}
	name := vd.Name
	st := iv.state[name]
	if st == nil {
		st = &vdCheck{}
		iv.state[name] = st
	}
	violate := func(checker, detail string) {
		clk.Note(Milestone{Kind: Violated, Task: name,
			Err: Violation{Tick: tick, Checker: checker, Drone: name, Detail: detail}})
	}
	active := vd.VFC.State() == mavproxy.VFCActive

	if active && tick%canaryPeriod == 0 {
		canary := &mavlink.CommandLong{Command: mavlink.CmdComponentArmDisarm, Param1: 1}
		for _, reply := range vd.VFC.Send(canary) {
			if ack, ok := reply.(*mavlink.CommandAck); ok && ack.Result == mavlink.ResultAccepted {
				violate("whitelist-canary", "non-whitelisted COMPONENT_ARM_DISARM accepted by the controller")
			}
		}
	}

	if active && vd.Allotment.Exhausted() {
		st.over++
	} else {
		st.over = 0
	}
	if st.over > graceTicks && !st.fired {
		st.fired = true
		violate("allotment-guard", fmt.Sprintf(
			"allotment exhausted (time %.1fs, energy %.0fJ left) but VFC still active after %.1fs",
			vd.Allotment.TimeLeftS(), vd.Allotment.EnergyLeftJ(), float64(st.over)*tickS))
	}

	rec := vd.VFC.Recovering()
	mode := d.FC.Mode()
	if rec {
		if mode == mavlink.ModeLand {
			violate("breach-conduct", "controller in LAND mode during breach recovery")
		}
		if d.Sim.OnGround() {
			violate("breach-conduct", "drone landed during breach recovery")
		}
	} else if st.recovering && mode != mavlink.ModeLoiter {
		violate("breach-conduct", "recovery ended in "+strings.ToLower(mavlink.ModeName(mode))+", want loiter")
	}
	st.recovering = rec
}
