package simharness

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"androne/internal/android"
	"androne/internal/apps"
	"androne/internal/cloud"
	"androne/internal/core"
	"androne/internal/gcs"
	"androne/internal/geo"
	"androne/internal/mavlink"
	"androne/internal/mavproxy"
	"androne/internal/netem"
	"androne/internal/planner"
	"androne/internal/sched"
	"androne/internal/sdk"
	"androne/internal/telemetry"
)

// TickS is the harness tick in sim seconds: physics and the controller
// advance at the fast-loop rate inside each tick, the proxy at 10 Hz.
const TickS = 0.1

// Home is the fixed home position every scenario flies from.
var Home = geo.Position{LatLon: geo.LatLon{Lat: 43.6084298, Lon: -85.8110359}, Alt: 0}

// Event is one tick-stamped trace entry.
type Event struct {
	Tick   int     `json:"tick"`
	TimeS  float64 `json:"time-s"`
	Kind   string  `json:"kind"`
	Drone  string  `json:"drone,omitempty"`
	Detail string  `json:"detail,omitempty"`
}

func (e Event) String() string {
	s := fmt.Sprintf("[%05d %7.1fs] %-14s", e.Tick, e.TimeS, e.Kind)
	if e.Drone != "" {
		s += " " + e.Drone
	}
	if e.Detail != "" {
		s += ": " + e.Detail
	}
	return s
}

// Violation is one invariant checker failure.
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

// Result is a completed scenario run.
type Result struct {
	Scenario   string      `json:"scenario"`
	Seed       string      `json:"seed"`
	Ticks      int         `json:"ticks"`
	SimSeconds float64     `json:"sim-seconds"`
	Events     []Event     `json:"events"`
	Violations []Violation `json:"violations"`
	Orders     []cloud.Order
	// FlightRecords are the black-box dumps the flight recorder archived
	// during the run: one per invariant violation, geofence recovery,
	// permission revocation, and VDR save.
	FlightRecords []telemetry.FlightRecord `json:"flight-records,omitempty"`
}

// Passed reports whether the run finished with no invariant violations.
func (r *Result) Passed() bool { return len(r.Violations) == 0 }

// Trace renders the event trace one line per event; identical seeds must
// yield identical traces (the determinism contract the tests enforce).
func (r *Result) Trace() string {
	var b strings.Builder
	for _, e := range r.Events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// droneMeta is the runner's per-virtual-drone bookkeeping.
type droneMeta struct {
	spec      DroneSpec
	orderID   string
	dwellTick int // tick of the first waypoint grant (-1 until then)
	// pushTarget, when set, is re-asserted through the master connection
	// every tick until the fence trips: the induced breach must win the
	// tug-of-war against a pilot re-targeting the drone inside the fence.
	pushTarget *geo.Position
	// files offloaded at flight end, for the delivery checker.
	files []string
}

// faultState tracks one fault through its trigger.
type faultState struct {
	Fault
	fired   bool
	pending bool // due but waiting for an eligible moment (save-restore)
}

// Runner executes one scenario.
type Runner struct {
	sc      *Scenario
	drone   *core.Drone
	env     *core.CloudEnv
	orders  *cloud.Orders
	station *gcs.Station

	checkers []Checker
	events   []Event
	fails    []Violation
	tick     int
	maxTicks int // the flight's tick budget
	liftoff  int // tick of takeoff completion (-1 before)
	meta     map[string]*droneMeta
	names    []string // declaration order
	route    planner.Route
	faults   []*faultState
	pilotN   int

	// Event-driven mode state (zero in lockstep; see runner_event.go).
	mode     Mode
	queue    *sched.Queue
	lastFP   uint64
	fpStable bool
	// holdStepped counts the ticks advanceToNextWakeup stepped rather
	// than leapt since the latest hold began. Tests read it; it is not
	// part of the Result or the trace.
	holdStepped int
}

// NewRunner builds the full stack for a scenario: drone, cloud environment,
// orders, virtual drones and their route, optional GCS pilot, checkers.
func NewRunner(sc *Scenario) (*Runner, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	d, err := core.NewDrone(Home, sc.Seed)
	if err != nil {
		return nil, err
	}
	apps.RegisterAll(d.VDC)

	r := &Runner{
		sc:      sc,
		drone:   d,
		env:     core.NewCloudEnv(),
		orders:  cloud.NewOrders(),
		liftoff: -1,
		meta:    make(map[string]*droneMeta),
	}
	for _, f := range sc.Faults {
		fs := &faultState{Fault: f}
		if fs.From == "" {
			fs.From = "start"
		}
		r.faults = append(r.faults, fs)
	}

	// Order and create every virtual drone (Figure 4: pending → scheduled).
	for _, spec := range sc.Drones {
		def := specToDefinition(spec)
		defJSON, err := def.Encode()
		if err != nil {
			return nil, err
		}
		ord, err := r.orders.Create(spec.Owner, spec.Name, defJSON)
		if err != nil {
			return nil, fmt.Errorf("simharness: ordering %q: %w", spec.Name, err)
		}
		if _, err := d.VDC.Create(def); err != nil {
			return nil, fmt.Errorf("simharness: creating %q: %w", spec.Name, err)
		}
		_ = r.orders.Update(ord.ID, func(o *cloud.Order) {
			o.Status = cloud.OrderScheduled
		})
		r.meta[spec.Name] = &droneMeta{
			spec: spec, orderID: ord.ID, dwellTick: -1,
		}
		r.names = append(r.names, spec.Name)
		// Compile the drone's waypoints into the executor's route, with
		// positions from its definition and a 20 s dwell unless given.
		for idx, w := range spec.Waypoints {
			dwell := w.DwellS
			if dwell == 0 {
				dwell = 20
			}
			r.route.Stops = append(r.route.Stops, planner.Stop{
				Task: spec.Name, Index: idx, Waypoint: def.Waypoints[idx], DwellS: dwell,
			})
		}
	}

	switch sc.Sabotage {
	case "allotment":
		// A meter that never reports exhaustion: the allotment guard must
		// catch the exhausted drone that keeps its waypoint.
		d.VDC.BreakMeter()
	case "whitelist":
		// A template that wrongly admits ARM/DISARM: the canary checker
		// must catch the first command that leaks through.
		broken := mavproxy.TemplateStandard()
		broken.Name = "sabotaged"
		broken.Commands[mavlink.CmdComponentArmDisarm] = true
		if err := d.Proxy.SetWhitelist(r.names[0], broken); err != nil {
			return nil, err
		}
	}

	if sc.Pilot != nil {
		target := sc.Pilot.Target
		// Resolve the VFC per call so the pilot survives a mid-mission
		// save/restore of its target (the VFC object is replaced).
		ep := gcs.EndpointFunc{
			SendFn: func(m mavlink.Message) []mavlink.Message {
				v, err := d.Proxy.VFCByName(target)
				if err != nil {
					return nil
				}
				return v.Send(m)
			},
			TelemetryFn: func() []mavlink.Message {
				v, err := d.Proxy.VFCByName(target)
				if err != nil {
					return nil
				}
				return v.Telemetry()
			},
		}
		r.station = gcs.New(ep, pilotProfile(sc.Pilot.Profile),
			[]byte("vpn-"+sc.Seed), sc.Seed+"/gcs")
	}

	r.checkers = DefaultCheckers()
	return r, nil
}

func pilotProfile(name string) netem.Profile {
	switch name {
	case "rf":
		return netem.RFHobby()
	case "wired":
		return netem.WiredFios()
	default:
		return netem.CellularLTE()
	}
}

func specToDefinition(spec DroneSpec) *core.Definition {
	def := &core.Definition{
		Name:              spec.Name,
		Owner:             spec.Owner,
		MaxDuration:       spec.MaxDurationS,
		EnergyAllotted:    spec.EnergyJ,
		Apps:              spec.Apps,
		AppArgs:           spec.AppArgs,
		WaypointDevices:   spec.WaypointDevices,
		ContinuousDevices: spec.ContinuousDevices,
	}
	if def.MaxDuration == 0 {
		def.MaxDuration = 600
	}
	if def.EnergyAllotted == 0 {
		def.EnergyAllotted = 45000
	}
	if def.WaypointDevices == nil {
		def.WaypointDevices = []string{"camera", sdk.FlightControlDevice}
	}
	for _, w := range spec.Waypoints {
		def.Waypoints = append(def.Waypoints, geo.Waypoint{
			Position: geo.Position{
				LatLon: geo.OffsetNE(Home.LatLon, w.NorthM, w.EastM),
				Alt:    w.AltM,
			},
			MaxRadius: w.RadiusM,
		})
	}
	return def
}

// --------------------------------------------------------------------------
// Event and violation recording

func (r *Runner) now() float64 { return float64(r.tick) * TickS }

func (r *Runner) event(kind, drone, detail string) {
	r.events = append(r.events, Event{
		Tick: r.tick, TimeS: r.now(), Kind: kind, Drone: drone, Detail: detail,
	})
	// Mirror into the flight recorder so black-box dumps interleave the
	// harness's view (faults fired, pilot actions) with the stack's own
	// events. Harness events are rare, so interning per call is fine here.
	r.drone.Tel.Emit(telemetry.K(drone), telemetry.K("harness."+kind), 0, 0, detail)
}

// Violate records an invariant violation (also mirrored into the trace) and
// dumps the flight recorder: the black box is most valuable at the moment an
// invariant breaks.
func (r *Runner) Violate(checker, drone, detail string) {
	r.fails = append(r.fails, Violation{
		Tick: r.tick, Checker: checker, Drone: drone, Detail: detail,
	})
	r.event("VIOLATION", drone, checker+": "+detail)
	r.drone.Tel.Dump(telemetry.K(drone), "violation:"+checker, nil)
}

// Drone exposes the assembled stack to checkers.
func (r *Runner) Drone() *core.Drone { return r.drone }

// Env exposes the cloud environment to checkers.
func (r *Runner) Env() *core.CloudEnv { return r.env }

// DroneNames returns the scenario's virtual drone names in declaration
// order (checkers must never iterate a map).
func (r *Runner) DroneNames() []string { return r.names }

// --------------------------------------------------------------------------
// The tick

// stepTick advances the whole stack one harness tick: physics + controller
// at the fast-loop rate (proxy ticked inside), then fault triggers, the
// scripted pilot, core's breach relay, and every invariant checker.
func (r *Runner) stepTick() {
	r.drone.StepSeconds(TickS)
	r.tick++
	r.fireFaults()
	r.pushBreaches()
	r.pilotAct()
	r.drone.VDC.RelayBreaches(clock{r})
	for _, c := range r.checkers {
		c.Tick(r)
	}
}

// --------------------------------------------------------------------------
// Faults

func (r *Runner) fireFaults() {
	for _, f := range r.faults {
		if f.fired {
			continue
		}
		if !f.pending && !r.faultDue(f) {
			continue
		}
		if f.Kind == FaultSaveRestore && !r.saveRestoreEligible(f.Target) {
			f.pending = true
			continue
		}
		f.fired = true
		f.pending = false
		r.applyFault(f)
	}
}

// faultAnchor returns the tick a fault's AtS counts from: liftoff for
// "start" faults, the anchor drone's first waypoint grant for "dwell"
// faults. ok is false while that clock has not started.
func (r *Runner) faultAnchor(f *faultState) (tick int, ok bool) {
	if f.From != "dwell" {
		return r.liftoff, r.liftoff >= 0
	}
	// Untargeted faults (wind, link) anchor on the pilot's drone if
	// there is one, else the first drone's dwell.
	name := f.Target
	if name == "" {
		if f.Kind == FaultLink && r.sc.Pilot != nil {
			name = r.sc.Pilot.Target
		} else {
			name = r.names[0]
		}
	}
	if m := r.meta[name]; m != nil {
		return m.dwellTick, m.dwellTick >= 0
	}
	return 0, false
}

// faultDue evaluates the fault's anchor clock.
func (r *Runner) faultDue(f *faultState) bool {
	anchor, ok := r.faultAnchor(f)
	return ok && float64(r.tick-anchor)*TickS >= f.AtS
}

// saveRestoreEligible: the target must have visited at least one waypoint
// and not currently hold one, so progress round-tripping is observable and
// the save does not tear an active waypoint grant down.
func (r *Runner) saveRestoreEligible(name string) bool {
	vd, err := r.drone.VDC.Get(name)
	if err != nil {
		return false
	}
	visited, _ := vd.Progress()
	at, _ := vd.AtWaypoint()
	return visited >= 1 && !at
}

func (r *Runner) applyFault(f *faultState) {
	switch f.Kind {
	case FaultMotor:
		r.drone.Sim.SetMotorHealth(f.Motor, f.Efficiency)
		r.event("fault", "", fmt.Sprintf("motor %d efficiency %.0f%%", f.Motor, f.Efficiency*100))
	case FaultWind:
		r.drone.Sim.SetWindFor(f.WindN, f.WindE, f.GustStd, f.WindForS)
		r.event("fault", "", fmt.Sprintf("wind squall N=%.1f E=%.1f gust=%.1f for %.0fs",
			f.WindN, f.WindE, f.GustStd, f.WindForS))
	case FaultLink:
		p := netem.Profile{
			Name: "degraded", MeanMS: f.MeanMS, StdMS: 30, MinMS: 50,
			SpikeProb: 0.01, SpikeMaxMS: 800, LossProb: f.LossProb,
		}
		if p.MeanMS == 0 {
			p.MeanMS = 250
		}
		r.station.SetLinkProfile(p)
		r.event("fault", r.sc.Pilot.Target,
			fmt.Sprintf("gcs link degraded mean=%.0fms loss=%.3f", p.MeanMS, p.LossProb))
	case FaultRevoke:
		r.revokePermission(f.Target, f.Permission)
	case FaultBreach:
		r.forceBreach(f.Target)
	case FaultSaveRestore:
		r.saveRestore(f.Target)
	case FaultDowngrade:
		if err := r.drone.Proxy.SetWhitelist(f.Target, mavproxy.TemplateGuidedOnly()); err == nil {
			r.event("fault", f.Target, "whitelist downgraded to guided-only")
		}
	}
}

func (r *Runner) revokePermission(name, device string) {
	vd, err := r.drone.VDC.Get(name)
	if err != nil {
		return
	}
	perm := map[string]string{
		"camera":                android.PermCamera,
		"gps":                   android.PermLocation,
		"sensors":               android.PermSensors,
		"microphone":            android.PermAudio,
		sdk.FlightControlDevice: android.PermFlightControl,
	}[device]
	if perm == "" {
		return
	}
	am := vd.Instance.ActivityManager()
	for _, pkg := range vd.Def.Apps {
		am.Revoke(vd.UIDFor(pkg), perm)
	}
	r.event("fault", name, "revoked "+device+" permission")
	r.drone.Tel.Dump(telemetry.K(name), "permission-revoked", nil)
}

// forceBreach pushes the drone outside the target's active geofence
// through the trusted master connection — a deterministic stand-in for any
// force (wind, drift, a hostile pilot) carrying the drone over the fence.
// The proxy's breach protocol must take over from here.
func (r *Runner) forceBreach(name string) {
	vd, err := r.drone.VDC.Get(name)
	if err != nil {
		return
	}
	at, idx := vd.AtWaypoint()
	if !at {
		return
	}
	wp := vd.Def.Waypoints[idx]
	outside := geo.Position{
		LatLon: geo.OffsetNE(wp.LatLon, wp.MaxRadius*1.5, 0),
		Alt:    wp.Alt,
	}
	r.meta[name].pushTarget = &outside
	r.event("fault", name, fmt.Sprintf("breach induced: pushing %.0fm outside fence", wp.MaxRadius*0.5))
}

// pushBreaches drives pending induced breaches: the master connection
// re-asserts the outbound target every tick (overriding any pilot
// re-targeting) until the controller's fence trips, then lets the breach
// protocol take over.
func (r *Runner) pushBreaches() {
	for _, name := range r.names {
		m := r.meta[name]
		if m.pushTarget == nil {
			continue
		}
		vd, err := r.drone.VDC.Get(name)
		if err != nil || vd.VFC.State() != mavproxy.VFCActive {
			m.pushTarget = nil // waypoint over; the push failed to land
			continue
		}
		if vd.VFC.Recovering() {
			m.pushTarget = nil // fence tripped, protocol running
			continue
		}
		master := r.drone.Proxy.Master().Controller()
		if master.SetModeNum(mavlink.ModeGuided) != nil {
			continue
		}
		_ = master.GotoPosition(*m.pushTarget, 0) //vet:allow errflow adversarial push; rejection by the VFC is an accepted outcome
	}
}

// saveRestore checkpoints the target into the VDR and restores it,
// asserting mission progress, allotment, and marked files round-trip.
func (r *Runner) saveRestore(name string) {
	vd, err := r.drone.VDC.Get(name)
	if err != nil {
		return
	}
	beforeVisited, beforeTotal := vd.Progress()
	beforeTime := vd.Allotment.TimeLeftS()
	beforeEnergy := vd.Allotment.EnergyLeftJ()
	beforeMarked := len(vd.MarkedFiles())

	entry, err := r.drone.VDC.Save(name)
	if err != nil {
		r.Violate("restore-roundtrip", name, "save failed: "+err.Error())
		return
	}
	if err := r.env.VDR.Save(entry); err != nil {
		r.Violate("restore-roundtrip", name, "VDR save failed: "+err.Error())
		return
	}
	r.event("save", name, fmt.Sprintf("checkpointed to VDR (%d/%d waypoints)", beforeVisited, beforeTotal))

	loaded, err := r.env.VDR.Load(name)
	if err != nil {
		r.Violate("restore-roundtrip", name, "VDR load failed: "+err.Error())
		return
	}
	restored, err := r.drone.VDC.Restore(loaded)
	if err != nil {
		r.Violate("restore-roundtrip", name, "restore failed: "+err.Error())
		return
	}
	afterVisited, afterTotal := restored.Progress()
	if afterVisited != beforeVisited || afterTotal != beforeTotal {
		r.Violate("restore-roundtrip", name, fmt.Sprintf(
			"progress %d/%d became %d/%d", beforeVisited, beforeTotal, afterVisited, afterTotal))
	}
	if diff := restored.Allotment.TimeLeftS() - beforeTime; diff > 0.01 || diff < -0.01 {
		r.Violate("restore-roundtrip", name, fmt.Sprintf(
			"time allotment %.1fs became %.1fs", beforeTime, restored.Allotment.TimeLeftS()))
	}
	if diff := restored.Allotment.EnergyLeftJ() - beforeEnergy; diff > 1 || diff < -1 {
		r.Violate("restore-roundtrip", name, fmt.Sprintf(
			"energy allotment %.0fJ became %.0fJ", beforeEnergy, restored.Allotment.EnergyLeftJ()))
	}
	if got := len(restored.MarkedFiles()); got != beforeMarked {
		r.Violate("restore-roundtrip", name, fmt.Sprintf(
			"marked files %d became %d", beforeMarked, got))
	}
	r.event("restore", name, fmt.Sprintf("restored from VDR (%d/%d waypoints)", afterVisited, afterTotal))
}

// --------------------------------------------------------------------------
// Scripted pilot

// pilotAct sends the next scripted GCS command when the pilot's target VFC
// is active: a cycle of in-fence position nudges, yaw, loiter, and guided
// — each through MAVLink framing, the VPN tunnel, and the emulated link.
func (r *Runner) pilotAct() {
	if r.station == nil {
		return
	}
	period := r.sc.Pilot.PeriodTicks
	if period == 0 {
		period = 10
	}
	if r.tick%period != 0 {
		return
	}
	target := r.sc.Pilot.Target
	vd, err := r.drone.VDC.Get(target)
	if err != nil || vd.VFC.State() != mavproxy.VFCActive {
		return
	}
	at, idx := vd.AtWaypoint()
	if !at {
		return
	}
	wp := vd.Def.Waypoints[idx]

	var msg mavlink.Message
	var what string
	switch r.pilotN % 4 {
	case 0:
		// Small in-fence nudge east of center.
		tgt := geo.OffsetNE(wp.LatLon, 0, wp.MaxRadius*0.2)
		msg = &mavlink.SetPositionTargetGlobalInt{
			LatE7: mavlink.LatLonToE7(tgt.Lat),
			LonE7: mavlink.LatLonToE7(tgt.Lon),
			Alt:   float32(wp.Alt),
		}
		what = "goto"
	case 1:
		msg = &mavlink.CommandLong{Command: mavlink.CmdConditionYaw,
			Param1: float32((r.pilotN * 45) % 360)}
		what = "yaw"
	case 2:
		msg = &mavlink.CommandLong{Command: mavlink.CmdNavLoiterUnlim}
		what = "loiter"
	default:
		msg = &mavlink.SetMode{CustomMode: mavlink.ModeGuided}
		what = "guided"
	}
	r.pilotN++

	replies, _, err := r.station.Send(msg)
	switch {
	case errors.Is(err, gcs.ErrLost):
		r.event("pilot", target, what+" lost on link")
	case err != nil:
		r.Violate("gcs-path", target, what+": "+err.Error())
	default:
		r.event("pilot", target, what+" "+ackSummary(replies))
	}
}

func ackSummary(replies []mavlink.Message) string {
	for _, m := range replies {
		if ack, ok := m.(*mavlink.CommandAck); ok {
			switch ack.Result {
			case mavlink.ResultAccepted:
				return "accepted"
			case mavlink.ResultDenied:
				return "denied"
			case mavlink.ResultTemporarilyRejected:
				return "rejected"
			default:
				return fmt.Sprintf("result-%d", ack.Result)
			}
		}
	}
	return "no-ack"
}

// --------------------------------------------------------------------------
// The mission

// Run executes the scenario end to end and returns the result: the ground
// holds around core's mission executor, which flies the scenario's route
// and offloads on the runner's clock, then the checkers' final verdicts.
func (r *Runner) Run() (*Result, error) {
	r.maxTicks = r.sc.MaxTicks
	if r.maxTicks == 0 {
		r.maxTicks = 12000
	}

	r.hold(r.sc.HoldBeforeS, "pre-flight")
	report, err := r.drone.Fly(r.route, clock{r})
	if err != nil {
		return nil, err
	}

	r.hold(r.sc.HoldAfterS, "post-flight")
	_ = r.drone.Offload(r.env, clock{r}, report) // failures become violations in Note

	for _, c := range r.checkers {
		c.Finish(r)
	}

	res := &Result{
		Scenario:      r.sc.Name,
		Seed:          r.sc.Seed,
		Ticks:         r.tick,
		SimSeconds:    r.now(),
		Events:        r.events,
		Violations:    r.fails,
		Orders:        r.orders.List(""),
		FlightRecords: r.drone.Tel.Records(),
	}
	return res, nil
}

// clock is the runner as the executor's core.Clock.
type clock struct{ *Runner }

// Tick advances one harness tick and reports whether the budget has room.
func (c clock) Tick(p core.Phase) bool {
	c.tickOnce(p)
	return c.tick < c.maxTicks
}

// dwellEnds renders core.DwellReason for the trace.
var dwellEnds = [...]string{
	core.DwellCap:           "dwell cap",
	core.AllotmentExhausted: "allotment exhausted",
	core.AppCompleted:       "app completed",
}

// Note turns an executor milestone into its trace event, fault anchor,
// order status, or violation.
func (c clock) Note(m core.Milestone) {
	r := c.Runner
	switch m.Kind {
	case core.Airborne:
		r.liftoff = r.tick
		r.event("takeoff", "", fmt.Sprintf("airborne at %dm", core.TransitAltM))
		// The portal hands out access once the drone is up (Figure 4).
		for _, name := range r.names {
			_ = r.orders.Update(r.meta[name].orderID, func(o *cloud.Order) {
				o.Status = cloud.OrderFlying
				o.Access = cloud.AccessInfo{
					VFCAddr: "vfc://" + name + ":5760",
					SSHAddr: "ssh://" + name + ":22",
					VPNKey:  "vpn-" + r.sc.Seed,
				}
			})
		}
	case core.Transiting:
		r.event("transit", m.Task, fmt.Sprintf("to waypoint %d", m.Index))
	case core.Reached:
		if md := r.meta[m.Task]; md.dwellTick < 0 {
			md.dwellTick = r.tick
		}
		r.event("reached", m.Task, fmt.Sprintf("waypoint %d granted", m.Index))
	case core.DwellEnd:
		r.event("dwell-end", m.Task, dwellEnds[m.Reason])
	case core.Left:
		r.event("left", m.Task, fmt.Sprintf("waypoint %d revoked", m.Index))
	case core.Abort:
		r.event("abort", "", "tick budget exhausted")
	case core.Returning:
		if m.Err != nil {
			r.event("rtl", "", "rtl refused: "+m.Err.Error())
		} else {
			r.event("rtl", "", "returning to launch")
		}
	case core.Landed:
		if m.Err != nil {
			r.event("landed", "", "did not land within cap")
		} else {
			r.event("landed", "", fmt.Sprintf("flight %.0fs, %.0fJ", r.now(), r.drone.Sim.EnergyUsedJ()))
		}
	case core.Breach:
		r.event("breach", m.Task, "geofence breached; recovery started")
	case core.Recovered:
		r.event("recovered", m.Task, "mode="+strings.ToLower(mavlink.ModeName(r.drone.FC.Mode())))
	case core.Offloaded:
		if m.Err != nil {
			r.Violate("file-delivery", m.Task, m.Err.Error())
			return
		}
		md := r.meta[m.Task]
		md.files = append(md.files, m.Files...)
		sort.Strings(md.files)
		if len(md.files) > 0 {
			r.event("offload", m.Task, fmt.Sprintf("%d files to cloud storage", len(md.files)))
		}
	case core.Saved:
		if m.Err != nil {
			r.Violate("vdr-save", m.Task, m.Err.Error())
			return
		}
		r.event("saved", m.Task, fmt.Sprintf("to VDR, completed=%v", m.Completed))
		status := cloud.OrderSaved
		if m.Completed {
			status = cloud.OrderCompleted
		}
		_ = r.orders.Update(r.meta[m.Task].orderID, func(o *cloud.Order) { o.Status = status })
	}
}

// RunScenario is the one-call entry: build the stack, run in lockstep,
// return the result.
//
//vet:detpath scenario runs feed trace hashes and violation rendering
func RunScenario(sc *Scenario) (*Result, error) {
	return RunScenarioMode(sc, ModeLockstep)
}
