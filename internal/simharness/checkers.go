package simharness

import (
	"fmt"
	"strings"

	"androne/internal/cloud"
	"androne/internal/mavlink"
	"androne/internal/mavproxy"
)

// Checker is a pluggable invariant: Tick runs after every harness tick,
// Finish once after the flight-end workflow. Checkers record failures via
// Runner.Violate and must be deterministic (no map iteration, no clocks).
type Checker interface {
	Name() string
	Tick(r *Runner)
	Finish(r *Runner)
}

// DefaultCheckers returns the paper's invariant set.
func DefaultCheckers() []Checker {
	return []Checker{
		newWhitelistCanary(),
		newAllotmentGuard(),
		&breachConduct{},
		&fileDelivery{},
		&orderLifecycle{},
	}
}

// --------------------------------------------------------------------------
// Whitelist canary

// whitelistCanary probes the paper's confinement claim from the outside:
// denied messages never reach the flight controller, so the only way to
// observe enforcement is to send a command that is in NO template —
// COMPONENT_ARM_DISARM — into every active VFC and assert it never comes
// back accepted. The probe is harmless even if it leaks (the drone is
// already armed), but an accepted ack proves a non-whitelisted command
// reached the controller.
type whitelistCanary struct {
	period int
}

func newWhitelistCanary() *whitelistCanary { return &whitelistCanary{period: 20} }

func (c *whitelistCanary) Name() string { return "whitelist-canary" }

func (c *whitelistCanary) Tick(r *Runner) {
	if r.tick%c.period != 0 {
		return
	}
	for _, name := range r.DroneNames() {
		vd, err := r.Drone().VDC.Get(name)
		if err != nil || vd.VFC.State() != mavproxy.VFCActive {
			continue
		}
		canary := &mavlink.CommandLong{Command: mavlink.CmdComponentArmDisarm, Param1: 1}
		for _, reply := range vd.VFC.Send(canary) {
			ack, ok := reply.(*mavlink.CommandAck)
			if !ok {
				continue
			}
			if ack.Result == mavlink.ResultAccepted {
				r.Violate(c.Name(), name,
					"non-whitelisted COMPONENT_ARM_DISARM accepted by the controller")
			}
		}
	}
}

func (c *whitelistCanary) Finish(r *Runner) {}

// --------------------------------------------------------------------------
// Allotment guard

// allotmentGuard enforces the allotment claim: once a virtual drone's
// energy or time budget is exhausted, flight control must be taken away.
// The Allotment type clamps at zero, so "never negative" is recast as its
// operational consequence — an exhausted drone must not stay in control
// beyond a one-second grace window.
type allotmentGuard struct {
	over  map[string]int
	fired map[string]bool
}

func newAllotmentGuard() *allotmentGuard {
	return &allotmentGuard{over: make(map[string]int), fired: make(map[string]bool)}
}

func (c *allotmentGuard) Name() string { return "allotment-guard" }

// graceTicks is how long an exhausted drone may remain active before the
// checker fires: one second of sim time for the orchestrator to notice and
// revoke.
const graceTicks = 10

func (c *allotmentGuard) Tick(r *Runner) {
	for _, name := range r.DroneNames() {
		vd, err := r.Drone().VDC.Get(name)
		if err != nil {
			c.over[name] = 0
			continue
		}
		if vd.Allotment.Exhausted() && vd.VFC.State() == mavproxy.VFCActive {
			c.over[name]++
		} else {
			c.over[name] = 0
		}
		if c.over[name] > graceTicks && !c.fired[name] {
			c.fired[name] = true
			r.Violate(c.Name(), name, fmt.Sprintf(
				"allotment exhausted (time %.1fs, energy %.0fJ left) but VFC still active after %.1fs",
				vd.Allotment.TimeLeftS(), vd.Allotment.EnergyLeftJ(),
				float64(c.over[name])*TickS))
		}
	}
}

func (c *allotmentGuard) Finish(r *Runner) {}

// --------------------------------------------------------------------------
// Breach conduct

// breachConduct enforces the paper's breach protocol: a geofence breach
// must never trigger the stock failsafe landing — the drone is guided back
// inside the fence and then LOITERS, returning control to the virtual
// drone. While a recovery is in progress the controller must never be in
// LAND mode, and the mode at the moment recovery completes must be loiter.
type breachConduct struct {
	recovering map[string]bool
}

func (c *breachConduct) Name() string { return "breach-conduct" }

func (c *breachConduct) Tick(r *Runner) {
	if c.recovering == nil {
		c.recovering = make(map[string]bool)
	}
	for _, name := range r.DroneNames() {
		vd, err := r.Drone().VDC.Get(name)
		if err != nil {
			c.recovering[name] = false
			continue
		}
		rec := vd.VFC.Recovering()
		mode := r.Drone().FC.Mode()
		if rec {
			if mode == mavlink.ModeLand {
				r.Violate(c.Name(), name, "controller in LAND mode during breach recovery")
			}
			if r.Drone().Sim.OnGround() {
				r.Violate(c.Name(), name, "drone landed during breach recovery")
			}
		} else if c.recovering[name] {
			// Recovery just completed: the protocol ends in loiter.
			if mode != mavlink.ModeLoiter {
				r.Violate(c.Name(), name,
					"recovery ended in "+strings.ToLower(mavlink.ModeName(mode))+", want loiter")
			}
		}
		c.recovering[name] = rec
	}
}

func (c *breachConduct) Finish(r *Runner) {}

// --------------------------------------------------------------------------
// File delivery

// fileDelivery verifies the offload claim at flight end: every file an app
// marked for its user is present in cloud storage under the owner's
// account.
type fileDelivery struct{}

func (c *fileDelivery) Name() string { return "file-delivery" }

func (c *fileDelivery) Tick(r *Runner) {}

func (c *fileDelivery) Finish(r *Runner) {
	for _, name := range r.DroneNames() {
		m := r.meta[name]
		for _, dst := range m.files {
			if _, err := r.Env().Storage.Get(m.spec.Owner, dst); err != nil {
				r.Violate(c.Name(), name, "marked file missing from cloud storage: "+dst)
			}
		}
	}
}

// --------------------------------------------------------------------------
// Order lifecycle

// orderLifecycle verifies the Figure 4 workflow closed out: every order
// ends completed (all waypoints served) or saved (resumable from the VDR),
// never stuck pending/scheduled/flying, and every virtual drone was
// checkpointed into the VDR.
type orderLifecycle struct{}

func (c *orderLifecycle) Name() string { return "order-lifecycle" }

func (c *orderLifecycle) Tick(r *Runner) {}

func (c *orderLifecycle) Finish(r *Runner) {
	for _, name := range r.DroneNames() {
		m := r.meta[name]
		ord, err := r.orders.Get(m.orderID)
		if err != nil {
			r.Violate(c.Name(), name, "order vanished: "+m.orderID)
			continue
		}
		if ord.Status != cloud.OrderCompleted && ord.Status != cloud.OrderSaved {
			r.Violate(c.Name(), name,
				fmt.Sprintf("order %s ended %q, want completed or saved", ord.ID, ord.Status))
		}
		if _, err := r.Env().VDR.Load(name); err != nil {
			r.Violate(c.Name(), name, "not in VDR at flight end")
		}
	}
}
