// Package core implements AnDrone's primary contribution: the virtual drone
// abstraction and the onboard architecture that runs it. It provides the
// virtual drone JSON definition (paper §3, Figure 2), the Virtual Drone
// Controller (VDC) that creates, meters, and saves virtual drones and
// enforces their device access, the onboard Drone assembly wiring the Binder
// driver, container runtime, device container, and flight container
// together, and the flight orchestration implementing the Figure 4 workflow
// from takeoff through per-waypoint virtual drone control to file offload
// and VDR checkpointing.
package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"

	"androne/internal/devices"
	"androne/internal/geo"
	"androne/internal/sdk"
)

// Device names usable in definitions, mapped to hardware kinds.
var deviceKinds = map[string]devices.Kind{
	"camera":                devices.KindCamera,
	"gps":                   devices.KindGPS,
	"sensors":               devices.KindIMU, // motion + environmental sensors
	"microphone":            devices.KindMicrophone,
	sdk.FlightControlDevice: devices.KindFlightControl,
}

// DeviceNames returns the valid device names, for documentation and portal
// UI use.
func DeviceNames() []string {
	return []string{"camera", "gps", "sensors", "microphone", sdk.FlightControlDevice}
}

// Definition is the virtual drone JSON specification (Figure 2): where it is
// to operate, how much energy and time it may use, which devices it needs
// and when, and what apps should be installed and run. Together with an
// Android Things container image it defines the entirety of a virtual drone
// and is fully self-contained.
type Definition struct {
	// Name identifies the virtual drone (assigned by the portal).
	Name string `json:"name,omitempty"`
	// Owner is the ordering user, for file delivery and billing.
	Owner string `json:"owner,omitempty"`
	// Waypoints the virtual drone is to visit; each defines a spherical
	// geofence volume via its max-radius.
	Waypoints []geo.Waypoint `json:"waypoints"`
	// MaxDuration is the maximum seconds allotted across all waypoints.
	MaxDuration float64 `json:"max-duration"`
	// EnergyAllotted is the maximum joules allotted across all waypoints;
	// whichever budget is exhausted first dictates when control is taken.
	EnergyAllotted float64 `json:"energy-allotted"`
	// ContinuousDevices are available from the first waypoint until the
	// last, subject to suspension at other parties' waypoints.
	ContinuousDevices []string `json:"continuous-devices"`
	// WaypointDevices are available only while operating at waypoints.
	// Flight control can only be a waypoint device.
	WaypointDevices []string `json:"waypoint-devices"`
	// Apps lists app packages to install in the container.
	Apps []string `json:"apps"`
	// AppArgs maps app package to its user-supplied arguments.
	AppArgs map[string]json.RawMessage `json:"app-args,omitempty"`
}

// Definition errors.
var (
	ErrNoWaypoints      = errors.New("core: definition needs at least one waypoint")
	ErrBadBudget        = errors.New("core: max-duration and energy-allotted must be positive")
	ErrUnknownDevice    = errors.New("core: unknown device")
	ErrFlightContinuous = errors.New("core: flight-control can only be a waypoint device")
	ErrDuplicateApp     = errors.New("core: app package listed twice")
)

// ParseDefinition parses and validates a definition.
func ParseDefinition(data []byte) (*Definition, error) {
	var d Definition
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("core: parsing definition: %w", err)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return &d, nil
}

// ValidateDefinitionJSON is a cloud.DefinitionValidator.
func ValidateDefinitionJSON(data []byte) error {
	_, err := ParseDefinition(data)
	return err
}

// Validate checks definition invariants.
func (d *Definition) Validate() error {
	if len(d.Waypoints) == 0 {
		return ErrNoWaypoints
	}
	for i, wp := range d.Waypoints {
		if err := wp.Validate(); err != nil {
			return fmt.Errorf("core: waypoint %d: %w", i, err)
		}
	}
	if d.MaxDuration <= 0 || d.EnergyAllotted <= 0 {
		return ErrBadBudget
	}
	for _, dev := range d.WaypointDevices {
		if _, ok := deviceKinds[dev]; !ok {
			return fmt.Errorf("%w: %q", ErrUnknownDevice, dev)
		}
	}
	for _, dev := range d.ContinuousDevices {
		if _, ok := deviceKinds[dev]; !ok {
			return fmt.Errorf("%w: %q", ErrUnknownDevice, dev)
		}
		if dev == sdk.FlightControlDevice {
			return ErrFlightContinuous
		}
	}
	// An app is installed and started once per listing, so a repeat would
	// run its factory twice and tick the survivor twice per tick.
	for i, pkg := range d.Apps {
		if slices.Contains(d.Apps[:i], pkg) {
			return fmt.Errorf("%w: %q", ErrDuplicateApp, pkg)
		}
	}
	return nil
}

// Encode serializes the definition.
func (d *Definition) Encode() ([]byte, error) {
	return json.MarshalIndent(d, "", "  ")
}

// HasFlightControl reports whether flight control was requested (as a
// waypoint device).
func (d *Definition) HasFlightControl() bool {
	for _, dev := range d.WaypointDevices {
		if dev == sdk.FlightControlDevice {
			return true
		}
	}
	return false
}

// WaypointKinds returns the hardware kinds granted at waypoints.
func (d *Definition) WaypointKinds() []devices.Kind { return kindsOf(d.WaypointDevices) }

// ContinuousKinds returns the hardware kinds granted continuously.
func (d *Definition) ContinuousKinds() []devices.Kind { return kindsOf(d.ContinuousDevices) }

func kindsOf(names []string) []devices.Kind {
	var out []devices.Kind
	for _, n := range names {
		if k, ok := deviceKinds[n]; ok {
			if k == devices.KindIMU {
				// "sensors" covers motion and environmental sensors.
				out = append(out, devices.KindIMU, devices.KindBarometer, devices.KindMagnetometer)
				continue
			}
			out = append(out, k)
		}
	}
	return out
}

// ArgsFor returns the user-supplied arguments for an app package.
func (d *Definition) ArgsFor(pkg string) json.RawMessage {
	return d.AppArgs[pkg]
}
