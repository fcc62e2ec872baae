// Package mavproxy implements AnDrone's modified MAVProxy: the intermediary
// between clients and the flight controller that virtualizes flight control.
// It provides one standard, unrestricted connection for the cloud flight
// planner and service provider, and a virtual flight controller (VFC)
// connection per virtual drone that
//
//   - restricts which MAVLink commands are accepted via configurable
//     whitelist templates (from guided-only up to full control);
//   - geofences accepted commands to the virtual drone's waypoint volume;
//   - presents a virtualized view of the drone: idle on the ground at the
//     waypoint before activation, live telemetry while active, landing and
//     parked after the virtual drone finishes — unless the virtual drone has
//     continuous device access, in which case real positions are shown but
//     commands are still declined;
//   - handles geofence breaches without interrupting the flight: inform the
//     virtual drone, disable its commands, guide the drone back inside the
//     fence, switch to loiter, then return control.
package mavproxy

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"androne/internal/flight"
	"androne/internal/geo"
	"androne/internal/mavlink"
	"androne/internal/telemetry"
)

// Errors. Command-level refusals are reported in-band as MAVLink acks
// (denied / temporarily rejected), not as Go errors.
var (
	ErrNoVFC     = errors.New("mavproxy: no such VFC")
	ErrVFCExists = errors.New("mavproxy: VFC already exists")
)

// Whitelist is the set of MAVLink traffic a VFC accepts while active.
// Once installed on a VFC (NewVFC or SetWhitelist) a template is frozen:
// Send reads it through an atomic snapshot with no lock, so the installer
// must not mutate the maps afterwards — build a new template and swap it.
type Whitelist struct {
	// Name identifies the template.
	Name string
	// Messages are accepted message ids (commands go through CommandLong
	// and are checked against Commands).
	Messages map[uint8]bool
	// Commands are accepted MAV_CMD numbers within COMMAND_LONG.
	Commands map[uint16]bool
}

// AllowsMessage reports whether a non-command message id is accepted.
func (w Whitelist) AllowsMessage(id uint8) bool { return w.Messages[id] }

// AllowsCommand reports whether a MAV_CMD is accepted.
func (w Whitelist) AllowsCommand(cmd uint16) bool { return w.Commands[cmd] }

// TemplateGuidedOnly is the most restrictive template: the drone may only be
// given a desired GPS position (and a velocity with which to reach it).
func TemplateGuidedOnly() Whitelist {
	return Whitelist{
		Name:     "guided-only",
		Messages: map[uint8]bool{mavlink.MsgIDSetPositionTargetGlobal: true},
		Commands: map[uint16]bool{mavlink.CmdDoChangeSpeed: true},
	}
}

// TemplateStandard allows guided flight plus takeoff, landing, loiter, yaw,
// and speed control.
func TemplateStandard() Whitelist {
	return Whitelist{
		Name: "standard",
		Messages: map[uint8]bool{
			mavlink.MsgIDSetPositionTargetGlobal: true,
			mavlink.MsgIDSetMode:                 true,
			mavlink.MsgIDMissionCount:            true,
			mavlink.MsgIDMissionItemInt:          true,
			mavlink.MsgIDMissionClearAll:         true,
			mavlink.MsgIDParamRequestRead:        true,
			mavlink.MsgIDParamRequestList:        true,
		},
		Commands: map[uint16]bool{
			mavlink.CmdNavTakeoff:     true,
			mavlink.CmdNavLand:        true,
			mavlink.CmdNavLoiterUnlim: true,
			mavlink.CmdConditionYaw:   true,
			mavlink.CmdDoChangeSpeed:  true,
			mavlink.CmdDoSetMode:      true,
		},
	}
}

// TemplateFull allows full control of the drone so long as it remains
// within the geofence; arming remains the provider's.
func TemplateFull() Whitelist {
	w := TemplateStandard()
	w.Name = "full"
	w.Commands[mavlink.CmdNavReturnToLaunch] = true
	// Full control may retune flight parameters; the controller still
	// clamps them to the provider's hard safety bounds.
	w.Messages[mavlink.MsgIDParamSet] = true
	return w
}

// VFCState is the lifecycle of a virtual flight controller connection.
type VFCState int

// VFC lifecycle states.
const (
	// VFCIdle: before the virtual drone's waypoint is reached, the VFC
	// presents the drone as idle on the ground at the waypoint and declines
	// commands.
	VFCIdle VFCState = iota
	// VFCActive: the real drone is at the waypoint; commands control it.
	VFCActive
	// VFCFinished: the virtual drone is done; the VFC presents the drone as
	// landed and declines commands for the remainder of the flight.
	VFCFinished
)

func (s VFCState) String() string {
	switch s {
	case VFCIdle:
		return "idle"
	case VFCActive:
		return "active"
	case VFCFinished:
		return "finished"
	}
	return fmt.Sprintf("VFCState(%d)", int(s))
}

// Proxy is the modified MAVProxy instance in the flight container.
type Proxy struct {
	mu sync.Mutex
	fc *flight.Controller
	// vfcs is sorted by name and copy-on-write: NewVFC and RemoveVFC swap
	// in a new slice under mu, so a slice read under mu may be walked
	// without it.
	vfcs []*VFC
	// tel is the drone's flight recorder; nil when running without one.
	// Set during bring-up (SetRecorder), before VFCs exist.
	tel *telemetry.Recorder
}

// New creates a proxy in front of the flight controller.
func New(fc *flight.Controller) *Proxy {
	return &Proxy{fc: fc}
}

// Master returns the unrestricted connection used by the cloud flight
// planner and the service provider.
func (p *Proxy) Master() *Master { return &Master{fc: p.fc} }

// Master is the unrestricted flight controller connection.
type Master struct {
	fc *flight.Controller
}

// Send forwards a message with no restrictions.
func (m *Master) Send(msg mavlink.Message) []mavlink.Message {
	return m.fc.HandleMessage(msg)
}

// Telemetry returns the flight controller's real telemetry.
func (m *Master) Telemetry() []mavlink.Message { return m.fc.Telemetry() }

// Controller exposes the underlying controller to the trusted side (the
// flight planner pilots the drone programmatically between waypoints).
func (m *Master) Controller() *flight.Controller { return m.fc }

// NewVFC creates a virtual flight controller connection for a virtual
// drone. continuous marks virtual drones with continuous device access,
// whose VFC shows real positions between waypoints (commands still
// declined).
func (p *Proxy) NewVFC(name string, wl Whitelist, continuous bool) (*VFC, error) {
	key := telemetry.K(name) // intern outside p.mu: K takes its own lock
	p.mu.Lock()
	defer p.mu.Unlock()
	i, ok := p.find(name)
	if ok {
		return nil, fmt.Errorf("%w: %q", ErrVFCExists, name)
	}
	v := &VFC{proxy: p, name: name, key: key, tel: p.tel, continuous: continuous, state: VFCIdle,
		sends: mSends.Local()}
	v.wl.Store(&wl)
	p.vfcs = slices.Concat(p.vfcs[:i], []*VFC{v}, p.vfcs[i:])
	return v, nil
}

// find binary-searches p.vfcs for name, returning its index or where it
// would be inserted. The caller holds p.mu.
func (p *Proxy) find(name string) (int, bool) {
	return slices.BinarySearchFunc(p.vfcs, name, func(v *VFC, name string) int {
		return strings.Compare(v.name, name)
	})
}

// RemoveVFC tears down a virtual drone's connection (the VDC calls this
// when saving a virtual drone to the VDR). A removed name can be reused by
// a future flight.
func (p *Proxy) RemoveVFC(name string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if i, ok := p.find(name); ok {
		p.vfcs = slices.Concat(p.vfcs[:i], p.vfcs[i+1:])
	}
}

// SetWhitelist swaps a VFC's whitelist template in place — the provider
// upgrading or downgrading a customer's control level mid-service (the
// paper's templates range from guided-only up to full control). The new
// template applies to the next message; in-flight state (waypoint, fence,
// breach recovery) is untouched. The swap is an atomic pointer store, so
// concurrent Sends read either the old template or the new one in full;
// the caller must not mutate wl's maps after this call.
func (p *Proxy) SetWhitelist(name string, wl Whitelist) error {
	v, err := p.VFCByName(name)
	if err != nil {
		return err
	}
	v.wl.Store(&wl)
	v.tel.Emit(v.key, kWhitelistSwap, 0, 0, wl.Name)
	return nil
}

// VFCByName retrieves a VFC.
func (p *Proxy) VFCByName(name string) (*VFC, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	i, ok := p.find(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoVFC, name)
	}
	return p.vfcs[i], nil
}

// Activate hands flight control to the named VFC at the waypoint: the
// geofence defined by the waypoint is installed on the flight controller
// with the AnDrone breach action, and the VFC starts accepting whitelisted
// commands.
func (p *Proxy) Activate(name string, wp geo.Waypoint) error {
	v, err := p.VFCByName(name)
	if err != nil {
		return err
	}
	v.mu.Lock()
	v.waypoint = wp
	v.fence = geo.FenceFor(wp)
	v.state = VFCActive
	v.cmdsDisabled = false
	v.missionOwned = false
	v.mu.Unlock()

	fence := geo.FenceFor(wp)
	p.fc.SetFence(&fence, func(c *flight.Controller) { p.onBreach(v) })
	v.pushEvent(&mavlink.StatusText{Severity: mavlink.SeverityInfo, Text: "waypoint active: " + name})
	v.tel.Emit(v.key, kActivate, 0, 0, "")
	return nil
}

// Deactivate takes flight control away from the VFC (waypoint finished or
// allotment exhausted). The VFC presents the drone as landing and declines
// further commands; the controller's fence and breach action are removed so
// the flight planner can route on.
func (p *Proxy) Deactivate(name string) error {
	v, err := p.VFCByName(name)
	if err != nil {
		return err
	}
	v.mu.Lock()
	wasActive := v.state == VFCActive
	v.state = VFCFinished
	v.cmdsDisabled = false
	v.recovering = false
	v.missionOwned = false
	v.mu.Unlock()
	if wasActive {
		p.fc.SetFence(nil, flight.FailsafeLand)
		v.pushEvent(&mavlink.StatusText{Severity: mavlink.SeverityInfo, Text: "waypoint finished: " + name})
		v.tel.Emit(v.key, kDeactivate, 0, 0, "")
	}
	return nil
}

// onBreach runs the AnDrone geofence breach sequence. It is invoked from the
// flight controller's fast loop when the fence is breached.
func (p *Proxy) onBreach(v *VFC) {
	v.mu.Lock()
	if v.state != VFCActive || v.recovering {
		v.mu.Unlock()
		return
	}
	// Steps 1-2: inform the virtual drone; disable commands on the VFC.
	v.cmdsDisabled = true
	v.recovering = true
	fence := v.fence
	v.mu.Unlock()
	v.pushEvent(&mavlink.StatusText{Severity: mavlink.SeverityWarning, Text: "geofence breached"})
	mBreaches.Inc()
	v.tel.Emit(v.key, kBreach, 0, 0, "")

	// Step 3: guide the drone back inside the geofence. A rejected command
	// must not strand the drone outside the fence with the VFC locked out:
	// Tick retries until the guidance sticks, then escalates to the land
	// failsafe.
	if err := p.guideBack(fence); err != nil {
		v.mu.Lock()
		v.guidePending = true
		v.mu.Unlock()
		v.pushEvent(&mavlink.StatusText{Severity: mavlink.SeverityWarning, Text: "breach recovery command rejected; retrying"})
	}
}

// guideBack points the flight controller at the closest position inside
// the fence under guided mode.
func (p *Proxy) guideBack(fence geo.Fence) error {
	target := fence.ClosestInside(p.fc.Estimate())
	if err := p.fc.SetModeNum(mavlink.ModeGuided); err != nil {
		return err
	}
	return p.fc.GotoPosition(target, 0)
}

// maxRecoverAttempts bounds guided-recovery retries before the proxy gives
// up and lands the drone.
const maxRecoverAttempts = 10

// Tick progresses breach recoveries; the flight container runs it
// periodically (the orchestrator calls it between control steps). When a
// recovering drone is back inside its fence, the proxy switches to loiter to
// hold position and returns control to the virtual drone.
func (p *Proxy) Tick() {
	p.mu.Lock()
	vfcs := p.vfcs
	p.mu.Unlock()
	// Recovery progresses (and emits trace events) per VFC, in name order.
	for _, v := range vfcs {
		v.mu.Lock()
		v.sends.Flush()
		needsCheck := v.recovering && v.state == VFCActive
		fence := v.fence
		pending := v.guidePending
		v.mu.Unlock()
		if !needsCheck {
			continue
		}
		pos := p.fc.Estimate()
		if fence.Margin(pos) > 0.05*fence.Radius {
			// Step 4: hold position, then return control. If the hold
			// command is rejected, keep the VFC locked out and retry on the
			// next tick rather than handing back control mid-drift.
			if err := p.fc.SetModeNum(mavlink.ModeLoiter); err != nil {
				continue
			}
			v.mu.Lock()
			tries := v.recoverTries
			v.recovering = false
			v.cmdsDisabled = false
			v.guidePending = false
			v.recoverTries = 0
			v.mu.Unlock()
			v.pushEvent(&mavlink.StatusText{Severity: mavlink.SeverityInfo, Text: "geofence recovered; control returned"})
			v.tel.Emit(v.key, kRecovered, int64(tries), 0, "")
			// Black-box the whole breach episode, retry count included, so
			// escalation-to-land (or the lack of it) is explainable.
			v.tel.Dump(v.key, "geofence-breach", map[string]float64{"recover-tries": float64(tries)})
			continue
		}
		if !pending {
			continue
		}
		// Still outside the fence with no accepted guidance: retry, and
		// land as a last resort when the controller keeps refusing.
		if err := p.guideBack(fence); err != nil {
			v.mu.Lock()
			v.recoverTries++
			tries := v.recoverTries
			giveUp := tries >= maxRecoverAttempts
			if giveUp {
				v.guidePending = false
			}
			v.mu.Unlock()
			mRecoverRetries.Inc()
			v.tel.Emit(v.key, kRetry, int64(tries), 0, "")
			if giveUp {
				v.pushEvent(&mavlink.StatusText{Severity: mavlink.SeverityCritical, Text: "breach recovery failed; landing"})
				v.tel.Emit(v.key, kRecoverFailed, int64(tries), 0, "")
				v.tel.Dump(v.key, "geofence-breach", map[string]float64{"recover-tries": float64(tries)})
				flight.FailsafeLand(p.fc)
			}
			continue
		}
		v.mu.Lock()
		v.guidePending = false
		v.recoverTries = 0
		v.mu.Unlock()
	}
}

// VFC is a virtual flight controller connection.
type VFC struct {
	proxy *Proxy
	name  string
	key   telemetry.Key       // interned name, cached for zero-cost emission
	tel   *telemetry.Recorder // copied from the proxy at construction; may be nil

	// wl is the whitelist template, published atomically: the Send hot
	// path loads it with no lock, SetWhitelist swaps in a frozen copy
	// (never mutated after installation — the COW discipline locksafe
	// enforces).
	wl atomic.Pointer[Whitelist]

	mu           sync.Mutex
	state        VFCState
	waypoint     geo.Waypoint
	fence        geo.Fence
	continuous   bool
	cmdsDisabled bool
	recovering   bool
	guidePending bool // breach guidance not yet accepted; Tick retries
	recoverTries int  // consecutive rejected recovery attempts
	missionOwned bool // this VFC uploaded the currently loaded mission
	events       []mavlink.Message
	seq          uint32
	// sends shards mSends under v.mu: Send is the proxy's hottest path and
	// a plain increment there avoids an atomic fence per message. Tick
	// flushes the batch.
	sends *telemetry.LocalCount

	// Denial reply scratch. A VFC is a serial MAVLink endpoint — one
	// in-flight Send per connection, as on a real telemetry link — so the
	// scratch is single-writer without v.mu; the returned slice and the
	// ack it points at are valid until the next Send on this VFC.
	ackScratch        mavlink.CommandAck
	missionAckScratch mavlink.MissionAck
	replyScratch      [1]mavlink.Message
}

// Name returns the VFC's virtual drone name.
func (v *VFC) Name() string { return v.name }

// State returns the VFC lifecycle state.
func (v *VFC) State() VFCState {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.state
}

// Recovering reports whether a geofence recovery is in progress.
func (v *VFC) Recovering() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.recovering
}

func (v *VFC) pushEvent(m mavlink.Message) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.events = append(v.events, m)
}

// deny counts and traces a refusal, then synthesizes the denial ack into
// the VFC's reply scratch (allocation-free; see the scratch field's serial
// endpoint contract). It runs with no VFC lock held.
func (v *VFC) deny(msg mavlink.Message, result uint8, reason string) []mavlink.Message {
	mRejects.Inc()
	v.tel.Emit(v.key, kReject, int64(msg.ID()), cmdOf(msg), reason)
	v.ackScratch = mavlink.CommandAck{Command: denyCmd(msg), Result: result}
	v.replyScratch[0] = &v.ackScratch
	return v.replyScratch[:]
}

// missionDeny is deny's counterpart for the mission protocol, where the
// rejection is a MissionAck rather than a CommandAck. Same serial-endpoint
// scratch contract as deny: valid until the next Send on this VFC.
func (v *VFC) missionDeny(t uint8) []mavlink.Message {
	v.missionAckScratch = mavlink.MissionAck{Type: t}
	v.replyScratch[0] = &v.missionAckScratch
	return v.replyScratch[:]
}

// cmdOf extracts the MAV_CMD number when the message carries one.
func cmdOf(msg mavlink.Message) int64 {
	if m, ok := msg.(*mavlink.CommandLong); ok {
		return int64(m.Command)
	}
	return 0
}

// denyCmd is the command number a denial ack reports for a message.
func denyCmd(msg mavlink.Message) uint16 {
	switch m := msg.(type) {
	case *mavlink.CommandLong:
		return m.Command
	case *mavlink.SetMode:
		return mavlink.CmdDoSetMode
	case *mavlink.SetPositionTargetGlobalInt:
		return mavlink.MsgIDSetPositionTargetGlobal
	}
	return 0
}

// Send processes a message from the virtual drone. Until the waypoint is
// reached (and after it is finished) all commands are declined. While
// active, the whitelist and geofence are enforced, then the message is
// forwarded to the real flight controller.
//
//vet:hotpath per-message dispatch, 0 allocs/op pinned by TestSendAcceptedZeroAlloc
func (v *VFC) Send(msg mavlink.Message) []mavlink.Message {
	if _, isHB := msg.(*mavlink.Heartbeat); isHB {
		return nil // heartbeats are always accepted silently
	}
	wl := v.wl.Load() // atomic snapshot; SetWhitelist swaps concurrently
	v.mu.Lock()
	state := v.state
	disabled := v.cmdsDisabled
	fence := v.fence
	v.sends.Inc() // sharded under v.mu; Tick flushes
	v.mu.Unlock()
	if state != VFCActive {
		return v.deny(msg, mavlink.ResultTemporarilyRejected, "inactive")
	}
	if disabled {
		return v.deny(msg, mavlink.ResultTemporarilyRejected, "disabled")
	}

	modeRequested := int64(-1)
	switch m := msg.(type) {
	case *mavlink.CommandLong:
		if !wl.AllowsCommand(m.Command) {
			return v.deny(msg, mavlink.ResultDenied, "whitelist")
		}
		// DO_SET_MODE may only select modes that keep the drone controllable
		// within the fence.
		if m.Command == mavlink.CmdDoSetMode {
			if !v.safeMode(uint32(m.Param2)) {
				return v.deny(msg, mavlink.ResultDenied, "unsafe-mode")
			}
			modeRequested = int64(m.Param2)
		}
	case *mavlink.SetMode:
		if !wl.AllowsMessage(mavlink.MsgIDSetMode) || !v.safeMode(m.CustomMode) {
			return v.deny(msg, mavlink.ResultDenied, "unsafe-mode")
		}
		modeRequested = int64(m.CustomMode)
	case *mavlink.SetPositionTargetGlobalInt:
		if !wl.AllowsMessage(mavlink.MsgIDSetPositionTargetGlobal) {
			return v.deny(msg, mavlink.ResultDenied, "whitelist")
		}
		target := geo.Position{
			LatLon: geo.LatLon{Lat: mavlink.E7ToLatLon(m.LatE7), Lon: mavlink.E7ToLatLon(m.LonE7)},
			Alt:    float64(m.Alt),
		}
		if !fence.Contains(target) {
			return v.deny(msg, mavlink.ResultDenied, "fence")
		}
	case *mavlink.MissionCount, *mavlink.MissionClearAll,
		*mavlink.ParamRequestRead, *mavlink.ParamRequestList, *mavlink.ParamSet:
		if !wl.AllowsMessage(msg.ID()) {
			return v.deny(msg, mavlink.ResultDenied, "whitelist")
		}
	case *mavlink.MissionItemInt:
		if !wl.AllowsMessage(mavlink.MsgIDMissionItemInt) {
			return v.deny(msg, mavlink.ResultDenied, "whitelist")
		}
		// Every uploaded mission item must lie inside the geofence; AUTO
		// flight then stays contained by construction (and the controller's
		// fence still guards the trajectory between items).
		target := geo.Position{
			LatLon: geo.LatLon{Lat: mavlink.E7ToLatLon(m.LatE7), Lon: mavlink.E7ToLatLon(m.LonE7)},
			Alt:    float64(m.Alt),
		}
		if !fence.Contains(target) {
			mRejects.Inc()
			v.tel.Emit(v.key, kReject, int64(msg.ID()), 0, "fence")
			return v.missionDeny(mavlink.MissionDenied)
		}
	default:
		return v.deny(msg, mavlink.ResultDenied, "unlisted")
	}
	if modeRequested >= 0 {
		mModeRequests.Inc()
		v.tel.Emit(v.key, kModeRequest, modeRequested, 0, "")
	}
	replies := v.proxy.fc.HandleMessage(msg)
	// Track mission ownership: a fully accepted upload through THIS VFC
	// unlocks AUTO mode (every item was fence-checked above).
	if _, isItem := msg.(*mavlink.MissionItemInt); isItem {
		for _, r := range replies {
			if ack, ok := r.(*mavlink.MissionAck); ok && ack.Type == mavlink.MissionAccepted {
				v.mu.Lock()
				v.missionOwned = true
				v.mu.Unlock()
			}
		}
	}
	if _, isClear := msg.(*mavlink.MissionClearAll); isClear {
		v.mu.Lock()
		v.missionOwned = false
		v.mu.Unlock()
	}
	return replies
}

// safeMode reports whether a virtual drone may switch the drone into the
// mode: modes that would leave the fence (RTL) or relinquish control
// entirely are reserved for the provider. AUTO is allowed only after this
// VFC uploaded a mission, since every uploaded item was fence-checked.
func (v *VFC) safeMode(mode uint32) bool {
	switch mode {
	case mavlink.ModeGuided, mavlink.ModeLoiter, mavlink.ModeLand:
		return true
	case mavlink.ModeAuto:
		v.mu.Lock()
		defer v.mu.Unlock()
		return v.missionOwned
	}
	return false
}

// Telemetry returns the virtualized telemetry stream plus any queued event
// notifications (STATUSTEXT).
func (v *VFC) Telemetry() []mavlink.Message {
	v.mu.Lock()
	state := v.state
	continuous := v.continuous
	wp := v.waypoint
	events := v.events
	v.events = nil
	v.seq++
	v.mu.Unlock()

	var out []mavlink.Message
	switch {
	case state == VFCActive || continuous:
		// Real telemetry; while inactive with continuous devices, commands
		// are still declined but positions are real to avoid discrepancies
		// with device readings.
		out = v.proxy.fc.Telemetry()
		if state != VFCActive {
			out = stripArmed(out)
		}
	case state == VFCIdle:
		out = v.syntheticTelemetry(wp, 0, "on ground at waypoint")
	default: // VFCFinished
		out = v.syntheticTelemetry(wp, 0, "landed")
	}
	return append(out, events...)
}

// stripArmed presents the drone as disarmed/idle in heartbeats while
// keeping real positions.
func stripArmed(msgs []mavlink.Message) []mavlink.Message {
	for i, m := range msgs {
		if hb, ok := m.(*mavlink.Heartbeat); ok {
			cp := *hb
			cp.BaseMode &^= mavlink.ModeFlagSafetyArmed
			cp.CustomMode = mavlink.ModeLoiter
			msgs[i] = &cp
		}
	}
	return msgs
}

// syntheticTelemetry fabricates the idle-on-ground view: disarmed heartbeat
// and a position fixed at the waypoint's ground location.
func (v *VFC) syntheticTelemetry(wp geo.Waypoint, altAGL float64, _ string) []mavlink.Message {
	hb := &mavlink.Heartbeat{
		CustomMode: mavlink.ModeStabilize, Type: 2, Autopilot: 3,
		BaseMode: mavlink.ModeFlagCustomModeEnabled, SystemStatus: 3, MavlinkVersion: 3,
	}
	gp := &mavlink.GlobalPositionInt{
		LatE7:         mavlink.LatLonToE7(wp.Lat),
		LonE7:         mavlink.LatLonToE7(wp.Lon),
		AltMM:         int32(math.Round(altAGL * 1000)),
		RelativeAltMM: int32(math.Round(altAGL * 1000)),
	}
	ss := &mavlink.SysStatus{VoltageBatteryMV: 12600, BatteryRemaining: 100}
	return []mavlink.Message{hb, gp, ss}
}
