// Package simharness is the end-to-end scenario runner for the AnDrone
// reproduction: it wires cloud orders and the VDR, the VDC's virtual
// drones, the device container, the MAVProxy VFCs, the flight controller,
// the SITL physics, and the emulated GCS link into one deterministic
// tick-driven simulation, injects faults from a declarative plan, and
// checks the paper's cross-layer invariants after every tick.
//
// The flight itself is core's mission executor (Drone.Fly and
// Drone.Offload, as in ExecuteRoute) on the runner's clock: each executor
// tick is one harness tick, and each milestone becomes a trace event.
//
// Scenarios are declarative (Go structs or JSON): the virtual drones to
// order (waypoints as metric offsets from home, apps, allotments), an
// optional scripted GCS pilot on one virtual drone's VFC, and a timed
// fault plan. All randomness flows from the scenario seed through the
// string-seeded RNGs in sitl and netem, so the same scenario always
// produces the same tick-stamped event trace.
package simharness

import (
	"encoding/json"
	"fmt"
	"os"
)

// Scenario is a declarative end-to-end simulation.
type Scenario struct {
	// Name labels the scenario in traces and test output.
	Name string `json:"name"`
	// Seed feeds every RNG in the stack (physics, links, apps).
	Seed string `json:"seed"`
	// Drones are the virtual drones to order, visited in declaration
	// order, each waypoint in order — a fixed route so traces are stable.
	Drones []DroneSpec `json:"drones"`
	// Pilot optionally scripts a ground station driving one VFC over an
	// emulated link (exercising netem, the VPN tunnel, MAVLink framing,
	// and the whitelist on the real wire path).
	Pilot *PilotSpec `json:"pilot,omitempty"`
	// Faults is the timed fault plan.
	Faults []Fault `json:"faults,omitempty"`
	// Sabotage deliberately breaks an enforcement layer so the matching
	// invariant checker must fire: "whitelist" installs a template that
	// wrongly admits arm/disarm on the first drone's VFC; "allotment"
	// breaks the VDC's meter so exhaustion never revokes control.
	// Used to prove the checkers can fail; "" for real runs.
	Sabotage string `json:"sabotage,omitempty"`
	// MaxTicks caps the simulation (0 = default 12000 ticks = 20 min sim).
	MaxTicks int `json:"max-ticks,omitempty"`
	// HoldBeforeS parks the drone on the ground for this many sim seconds
	// before takeoff — the duty-cycle idle an event-driven run leaps over
	// while lockstep pays for every tick. Hold ticks count against
	// MaxTicks.
	HoldBeforeS float64 `json:"hold-before-s,omitempty"`
	// HoldAfterS parks the drone after landing, before offload and VDR
	// save. Unlike the pre-takeoff hold, motor thrust and the attitude
	// estimate decay for a long while after touchdown, so this phase
	// mostly exercises the event runner's lockstep fallback.
	HoldAfterS float64 `json:"hold-after-s,omitempty"`
}

// DroneSpec orders one virtual drone.
type DroneSpec struct {
	Name  string   `json:"name"`
	Owner string   `json:"owner"`
	Apps  []string `json:"apps,omitempty"`
	// Waypoints as metric offsets from the drone's home position.
	Waypoints []WaypointSpec `json:"waypoints"`
	// MaxDurationS and EnergyJ are the allotment; zero values default to
	// 600 s / 45 kJ.
	MaxDurationS float64 `json:"max-duration-s,omitempty"`
	EnergyJ      float64 `json:"energy-j,omitempty"`
	// WaypointDevices defaults to camera + flight-control when empty.
	WaypointDevices   []string `json:"waypoint-devices,omitempty"`
	ContinuousDevices []string `json:"continuous-devices,omitempty"`
	// AppArgs maps app package to its JSON arguments.
	AppArgs map[string]json.RawMessage `json:"app-args,omitempty"`
}

// WaypointSpec is one waypoint as offsets from home.
type WaypointSpec struct {
	NorthM  float64 `json:"north-m"`
	EastM   float64 `json:"east-m"`
	AltM    float64 `json:"alt-m"`
	RadiusM float64 `json:"radius-m"`
	// DwellS sizes the dwell cap at this waypoint (0 = 20 s).
	DwellS float64 `json:"dwell-s,omitempty"`
}

// PilotSpec scripts a GCS on one VFC.
type PilotSpec struct {
	// Target names the virtual drone whose VFC the station drives.
	Target string `json:"target"`
	// Profile selects the link: "lte" (default), "rf", or "wired".
	Profile string `json:"profile,omitempty"`
	// PeriodTicks spaces pilot commands (0 = every 10 ticks = 1 s sim).
	PeriodTicks int `json:"period-ticks,omitempty"`
}

// Fault kinds.
const (
	// FaultMotor degrades one motor's efficiency (sitl.SetMotorHealth).
	FaultMotor = "motor"
	// FaultWind applies a timed wind squall (sitl.SetWindFor).
	FaultWind = "wind"
	// FaultLink swaps the GCS link to a degraded profile (needs a pilot).
	FaultLink = "link"
	// FaultRevoke revokes an Android permission from the target's apps.
	FaultRevoke = "revoke"
	// FaultBreach drives the drone outside the active geofence through the
	// trusted master connection, triggering the breach protocol.
	FaultBreach = "breach"
	// FaultSaveRestore checkpoints the target to the VDR mid-mission and
	// restores it, asserting progress round-trips.
	FaultSaveRestore = "save-restore"
	// FaultDowngrade swaps the target's whitelist to guided-only
	// mid-service (the provider downgrading a customer's control level).
	FaultDowngrade = "downgrade"
)

// Fault is one timed fault.
type Fault struct {
	Kind string `json:"kind"`
	// Target names the virtual drone the fault applies to (unused for
	// motor/wind, which hit the physical drone).
	Target string `json:"target,omitempty"`
	// From anchors AtS: "start" (liftoff, default) or "dwell" (the
	// target's first waypoint grant, so faults land inside the dwell
	// regardless of transit duration).
	From string `json:"from,omitempty"`
	// AtS is seconds of sim time after the anchor.
	AtS float64 `json:"at-s"`

	// Motor parameters.
	Motor      int     `json:"motor,omitempty"`
	Efficiency float64 `json:"efficiency,omitempty"`
	// Wind parameters.
	WindN    float64 `json:"wind-n,omitempty"`
	WindE    float64 `json:"wind-e,omitempty"`
	GustStd  float64 `json:"gust-std,omitempty"`
	WindForS float64 `json:"wind-for-s,omitempty"`
	// Link parameters.
	LossProb float64 `json:"loss-prob,omitempty"`
	MeanMS   float64 `json:"mean-ms,omitempty"`
	// Revoke parameter: "camera", "gps", "sensors", "microphone",
	// "flight-control".
	Permission string `json:"permission,omitempty"`
}

// Validate rejects scenarios the runner cannot execute.
func (s *Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("simharness: scenario has no name")
	}
	if len(s.Drones) == 0 {
		return fmt.Errorf("simharness: scenario %q has no drones", s.Name)
	}
	names := make(map[string]bool)
	for _, d := range s.Drones {
		if d.Name == "" {
			return fmt.Errorf("simharness: scenario %q: drone with no name", s.Name)
		}
		if names[d.Name] {
			return fmt.Errorf("simharness: scenario %q: duplicate drone %q", s.Name, d.Name)
		}
		names[d.Name] = true
		if len(d.Waypoints) == 0 {
			return fmt.Errorf("simharness: drone %q has no waypoints", d.Name)
		}
	}
	if s.Pilot != nil && !names[s.Pilot.Target] {
		return fmt.Errorf("simharness: pilot targets unknown drone %q", s.Pilot.Target)
	}
	for i, f := range s.Faults {
		switch f.Kind {
		case FaultMotor, FaultWind:
		case FaultLink:
			if s.Pilot == nil {
				return fmt.Errorf("simharness: fault %d: %q needs a pilot", i, f.Kind)
			}
		case FaultRevoke, FaultBreach, FaultSaveRestore, FaultDowngrade:
			if !names[f.Target] {
				return fmt.Errorf("simharness: fault %d: unknown target %q", i, f.Target)
			}
		default:
			return fmt.Errorf("simharness: fault %d: unknown kind %q", i, f.Kind)
		}
		switch f.From {
		case "", "start", "dwell":
		default:
			return fmt.Errorf("simharness: fault %d: unknown anchor %q", i, f.From)
		}
	}
	switch s.Sabotage {
	case "", "whitelist", "allotment":
	default:
		return fmt.Errorf("simharness: unknown sabotage %q", s.Sabotage)
	}
	if s.HoldBeforeS < 0 || s.HoldAfterS < 0 {
		return fmt.Errorf("simharness: scenario %q: negative ground hold", s.Name)
	}
	return nil
}

// Load reads a scenario from a JSON file.
func Load(path string) (*Scenario, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Scenario
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("simharness: parsing %s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}
