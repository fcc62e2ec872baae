package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"androne/internal/android"
	"androne/internal/cloud"
	"androne/internal/container"
	"androne/internal/devcon"
	"androne/internal/devices"
	"androne/internal/energy"
	"androne/internal/geo"
	"androne/internal/mavproxy"
	"androne/internal/sdk"
	"androne/internal/telemetry"
)

// VDC errors.
var (
	ErrVDExists     = errors.New("core: virtual drone already exists")
	ErrNoVD         = errors.New("core: no such virtual drone")
	ErrNoName       = errors.New("core: definition has no name")
	ErrNameMismatch = errors.New("core: checkpoint container name does not match definition")
)

// instanceStatePath is where app saved state is persisted inside the
// container image so it survives VDR round trips.
func instanceStatePath(pkg string) string { return "/data/" + pkg + "/instance-state" }

// definitionPath holds the virtual drone's own definition inside its
// container, making the container+definition pair self-contained.
const definitionPath = "/data/androne/definition.json"

// progressPath persists VDC-level flight progress (visited waypoints,
// remaining allotment) so a virtual drone resumed from the VDR continues
// where it left off rather than revisiting waypoints or regaining spent
// budget. The layered VDR keys its app-set/state layer split on the same
// path, so the two constants must agree.
const progressPath = cloud.FlightProgressPath

// progressState is the serialized VDC progress.
type progressState struct {
	Started     bool     `json:"started"`
	Visited     []bool   `json:"visited"`
	TimeUsedS   float64  `json:"time-used-s"`
	EnergyUsedJ float64  `json:"energy-used-j"`
	Marked      []string `json:"marked,omitempty"`
}

// AppContext is what an app factory receives: its virtual drone, its SDK,
// its user-supplied arguments, and the drone for reaching device services.
type AppContext struct {
	VD    *VirtualDrone
	SDK   *sdk.SDK
	Args  json.RawMessage
	Drone *Drone
}

// AppFactory builds an app's lifecycle implementation. Apps that need to do
// work while their virtual drone is active also implement Ticker.
type AppFactory func(ctx *AppContext) android.Lifecycle

// Ticker is implemented by app lifecycles that want periodic execution
// while their virtual drone holds a waypoint (10 Hz).
type Ticker interface {
	Tick(dtS float64)
}

// VirtualDrone is a running virtual drone: its definition, Android Things
// container, Binder namespace instance, VFC connection, and allotment.
type VirtualDrone struct {
	Name      string
	Def       *Definition
	Container *container.Container
	Instance  *android.Instance
	VFC       *mavproxy.VFC
	Allotment *energy.Allotment
	// Framebuffer is the virtual framebuffer every Android instance
	// expects: drones are headless, so it is just a memory region with no
	// hardware behind it (paper §4.1).
	Framebuffer *devices.Framebuffer

	vdc      *VDC
	key      telemetry.Key // interned Name, cached for zero-cost emission
	sdks     map[string]*sdk.SDK
	apps     map[string]android.Lifecycle
	uids     map[string]int
	appOrder []string // definition order; event fan-out and ticks follow it

	mu                sync.Mutex
	started           bool // reached its first waypoint
	atWaypoint        bool
	curWaypoint       int
	visited           []bool
	suspended         bool
	done              bool
	completeRequested bool
	warnedTime        bool
	warnedEnergy      bool
	warnedExhausted   bool
	marked            []string
	netBytes          int64
	breachOpen        bool // a relayed geofence breach is in recovery
	breaches          int  // breaches relayed since creation
}

// SDKFor returns the app's SDK instance.
func (vd *VirtualDrone) SDKFor(pkg string) *sdk.SDK { return vd.sdks[pkg] }

// UIDFor returns the uid assigned to an installed app package (0 if not
// installed).
func (vd *VirtualDrone) UIDFor(pkg string) int { return vd.uids[pkg] }

// MarkedFiles returns container paths marked for upload.
func (vd *VirtualDrone) MarkedFiles() []string {
	vd.mu.Lock()
	defer vd.mu.Unlock()
	return append([]string(nil), vd.marked...)
}

// Progress reports how many of the virtual drone's waypoints have been
// visited, and the total. Restore round-trips this through the VDR.
func (vd *VirtualDrone) Progress() (visited, total int) {
	vd.mu.Lock()
	defer vd.mu.Unlock()
	for _, seen := range vd.visited {
		if seen {
			visited++
		}
	}
	return visited, len(vd.visited)
}

// Done reports whether the virtual drone finished all its waypoints.
func (vd *VirtualDrone) Done() bool {
	vd.mu.Lock()
	defer vd.mu.Unlock()
	return vd.done
}

// AtWaypoint reports whether the virtual drone currently holds a waypoint,
// and which.
func (vd *VirtualDrone) AtWaypoint() (bool, int) {
	vd.mu.Lock()
	defer vd.mu.Unlock()
	return vd.atWaypoint, vd.curWaypoint
}

// CompleteRequested reports whether an app signaled waypointCompleted.
func (vd *VirtualDrone) CompleteRequested() bool {
	vd.mu.Lock()
	defer vd.mu.Unlock()
	return vd.completeRequested
}

// Breaches reports whether a geofence breach relayed by RelayBreaches is
// still in recovery, and how many breaches it has relayed.
func (vd *VirtualDrone) Breaches() (open bool, count int) {
	vd.mu.Lock()
	defer vd.mu.Unlock()
	return vd.breachOpen, vd.breaches
}

// deliver fans an SDK event to every app, in definition order: app
// handlers run arbitrary code, so iterating the sdks map directly would
// let Go's randomized map order reorder side effects between replays.
func (vd *VirtualDrone) deliver(e sdk.Event) {
	for _, pkg := range vd.appOrder {
		vd.sdks[pkg].Deliver(e)
	}
}

// tick runs active apps' periodic work, in definition order (see deliver).
func (vd *VirtualDrone) tick(dt float64) {
	for _, pkg := range vd.appOrder {
		if t, ok := vd.apps[pkg].(Ticker); ok {
			t.Tick(dt)
		}
	}
}

// vdHost implements sdk.Host for one virtual drone.
type vdHost struct {
	vd *VirtualDrone
}

// WaypointCompleted implements sdk.Host.
func (h *vdHost) WaypointCompleted(app string) {
	h.vd.mu.Lock()
	defer h.vd.mu.Unlock()
	h.vd.completeRequested = true
}

// FlightControllerAddr implements sdk.Host.
func (h *vdHost) FlightControllerAddr(app string) string {
	return "vfc://" + h.vd.Name + ":5760"
}

// MarkFileForUser implements sdk.Host: the file must exist in the
// container.
func (h *vdHost) MarkFileForUser(app, path string) error {
	if _, err := h.vd.Container.ReadFile(path); err != nil {
		return err
	}
	h.vd.mu.Lock()
	defer h.vd.mu.Unlock()
	for _, p := range h.vd.marked {
		if p == path {
			return nil // already marked
		}
	}
	h.vd.marked = append(h.vd.marked, path)
	return nil
}

// AllottedEnergyLeft implements sdk.Host.
func (h *vdHost) AllottedEnergyLeft(app string) int { return int(h.vd.Allotment.EnergyLeftJ()) }

// AllottedTimeLeft implements sdk.Host.
func (h *vdHost) AllottedTimeLeft(app string) int { return int(h.vd.Allotment.TimeLeftS()) }

// --------------------------------------------------------------------------
// VDC

// VDC is the Virtual Drone Controller: a daemon running natively on the
// host OS responsible for creating virtual drone containers (or restoring
// them from the VDR), managing their device access throughout a flight,
// enforcing permission revocation, and storing virtual drones back to the
// VDR at flight end.
type VDC struct {
	drone *Drone

	mu        sync.Mutex
	factories map[string]AppFactory
	vds       map[string]*VirtualDrone

	meterFault atomic.Bool // see BreakMeter
}

func newVDC(d *Drone) *VDC {
	return &VDC{
		drone:     d,
		factories: make(map[string]AppFactory),
		vds:       make(map[string]*VirtualDrone),
	}
}

// RegisterAppFactory registers the implementation for an app package.
func (v *VDC) RegisterAppFactory(pkg string, f AppFactory) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.factories[pkg] = f
}

// Get retrieves a virtual drone by name.
func (v *VDC) Get(name string) (*VirtualDrone, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	vd, ok := v.vds[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoVD, name)
	}
	return vd, nil
}

// List returns virtual drone names, sorted.
func (v *VDC) List() []string {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]string, 0, len(v.vds))
	for n := range v.vds {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Create builds a virtual drone from its definition: a fresh Android Things
// container with the specified apps installed.
func (v *VDC) Create(def *Definition) (*VirtualDrone, error) {
	return v.create(def, nil)
}

// Restore reinstates a virtual drone saved in the VDR: same definition,
// same container diff, apps resuming from their saved instance state.
func (v *VDC) Restore(entry cloud.VDREntry) (*VirtualDrone, error) {
	def, err := ParseDefinition(entry.Definition)
	if err != nil {
		return nil, err
	}
	return v.create(def, entry.Checkpoint)
}

func (v *VDC) create(def *Definition, checkpoint []byte) (*VirtualDrone, error) {
	if def.Name == "" {
		mAdmissionFails.Inc()
		return nil, ErrNoName
	}
	if err := def.Validate(); err != nil {
		mAdmissionFails.Inc()
		return nil, err
	}
	name := def.Name
	// Intern the drone key before taking any VDC lock: K takes its own lock.
	key := telemetry.K(name)
	admitFail := func(why string) {
		mAdmissionFails.Inc()
		v.drone.Tel.Emit(key, kAdmitFail, 0, 0, why)
	}
	v.mu.Lock()
	if _, ok := v.vds[name]; ok {
		v.mu.Unlock()
		admitFail("duplicate")
		return nil, fmt.Errorf("%w: %q", ErrVDExists, name)
	}
	v.mu.Unlock()

	// Container: fresh from base image, or restored from checkpoint.
	var c *container.Container
	var err error
	if checkpoint != nil {
		c, err = v.drone.Runtime.Restore(checkpoint)
	} else {
		c, err = v.drone.Runtime.Create(name, BaseImageName, container.Limits{MemoryMB: MemVirtualDroneMB})
	}
	if err != nil {
		admitFail("container")
		return nil, err
	}
	if c.Name() != name {
		// A VDR entry whose checkpoint belongs to a different virtual drone
		// (corrupt storage, or an entry spliced together from two drones)
		// must not come up under this definition's identity.
		_ = v.drone.Runtime.Stop(c.Name())
		_ = v.drone.Runtime.Remove(c.Name())
		admitFail("name-mismatch")
		return nil, fmt.Errorf("%w: checkpoint %q, definition %q", ErrNameMismatch, c.Name(), name)
	}
	cleanup := func() {
		_ = v.drone.Runtime.Stop(name)
		_ = v.drone.Runtime.Remove(name)
		v.drone.Driver.RemoveNamespace(name)
	}
	if err := v.drone.Runtime.Start(name); err != nil {
		_ = v.drone.Runtime.Remove(name)
		admitFail("start")
		return nil, err
	}

	// Binder namespace + Android Things boot wired for AnDrone.
	ns, err := v.drone.Driver.CreateNamespace(name)
	if err != nil {
		cleanup()
		admitFail("namespace")
		return nil, err
	}
	inst, err := devcon.BootBridged(ns)
	if err != nil {
		cleanup()
		admitFail("boot")
		return nil, err
	}

	// VFC connection with the provider's whitelist template.
	vfc, err := v.drone.Proxy.NewVFC(name, mavproxy.TemplateStandard(), len(def.ContinuousDevices) > 0)
	if err != nil {
		cleanup()
		admitFail("vfc")
		return nil, err
	}

	vd := &VirtualDrone{
		Name:        name,
		Def:         def,
		Container:   c,
		Instance:    inst,
		VFC:         vfc,
		Allotment:   energy.NewAllotment(def.MaxDuration, def.EnergyAllotted),
		Framebuffer: devices.NewFramebuffer("fb:"+name, 320, 240),
		vdc:         v,
		key:         key,
		sdks:        make(map[string]*sdk.SDK),
		apps:        make(map[string]android.Lifecycle),
		uids:        make(map[string]int),
		visited:     make([]bool, len(def.Waypoints)),
	}

	// Persist the definition in the container so the pair is
	// self-contained.
	if defJSON, err := def.Encode(); err == nil {
		c.WriteFile(definitionPath, defJSON)
	}

	// When restoring, pick up flight progress from the previous flight.
	if checkpoint != nil {
		if raw, err := c.ReadFile(progressPath); err == nil {
			var st progressState
			if json.Unmarshal(raw, &st) == nil {
				vd.started = st.Started
				if len(st.Visited) == len(vd.visited) {
					copy(vd.visited, st.Visited)
				}
				all := len(vd.visited) > 0
				for _, seen := range vd.visited {
					all = all && seen
				}
				vd.done = all
				vd.Allotment.Consume(st.TimeUsedS, st.EnergyUsedJ)
				// Files marked for the user before the save must still be
				// offloaded at the end of the resumed flight.
				vd.marked = append([]string(nil), st.Marked...)
			}
		}
	}

	// Install apps: grant manifest permissions for the devices the
	// definition requests, build the app via its factory, and start it with
	// any saved instance state from a previous flight.
	host := &vdHost{vd: vd}
	for i, pkg := range def.Apps {
		uid := 10001 + i
		vd.uids[pkg] = uid
		vd.appOrder = append(vd.appOrder, pkg)
		v.grantPermissions(inst, uid, def)
		s := sdk.New(host, pkg)
		vd.sdks[pkg] = s

		v.mu.Lock()
		factory := v.factories[pkg]
		v.mu.Unlock()
		var lc android.Lifecycle
		if factory != nil {
			lc = factory(&AppContext{VD: vd, SDK: s, Args: def.ArgsFor(pkg), Drone: v.drone})
		}
		vd.apps[pkg] = lc
		app := inst.Install(pkg, uid, lc)
		if saved, err := c.ReadFile(instanceStatePath(pkg)); err == nil {
			app.SetSavedState(saved)
		}
		if err := inst.StartApp(pkg); err != nil {
			cleanup()
			admitFail("app-start")
			return nil, err
		}
	}

	v.mu.Lock()
	v.vds[name] = vd
	v.mu.Unlock()
	mAdmissions.Inc()
	how := "create"
	if checkpoint != nil {
		how = "restore"
	}
	v.drone.Tel.Emit(key, kAdmit, int64(len(def.Apps)), int64(len(def.Waypoints)), how)
	return vd, nil
}

// grantPermissions grants the Android permissions matching the definition's
// requested devices, as the package installer does from the app manifest.
func (v *VDC) grantPermissions(inst *android.Instance, uid int, def *Definition) {
	am := inst.ActivityManager()
	grant := func(names []string) {
		for _, n := range names {
			switch n {
			case "camera":
				am.Grant(uid, android.PermCamera)
			case "gps":
				am.Grant(uid, android.PermLocation)
			case "sensors":
				am.Grant(uid, android.PermSensors)
			case "microphone":
				am.Grant(uid, android.PermAudio)
			case sdk.FlightControlDevice:
				am.Grant(uid, android.PermFlightControl)
			}
		}
	}
	grant(def.WaypointDevices)
	grant(def.ContinuousDevices)
}

// --------------------------------------------------------------------------
// Device access policy (devcon.Policy)

// AllowDevice implements the VDC side of the device container's permission
// check: it is queried by checkPermission in addition to the calling
// container's ActivityManager, and decides by the virtual drone definition
// and the current flight phase. Waypoint devices win at waypoints;
// continuous devices apply between them but are suspended while another
// party's waypoint is visited.
func (v *VDC) AllowDevice(containerName string, kind devices.Kind) bool {
	if containerName == devcon.NamespaceName || containerName == FlightConName {
		return true
	}
	v.mu.Lock()
	vd, ok := v.vds[containerName]
	v.mu.Unlock()
	if !ok {
		return false
	}
	vd.mu.Lock()
	defer vd.mu.Unlock()
	if vd.atWaypoint && hasKind(vd.Def.WaypointKinds(), kind) {
		return true
	}
	if vd.started && !vd.done && !vd.suspended && hasKind(vd.Def.ContinuousKinds(), kind) {
		return true
	}
	return false
}

func hasKind(kinds []devices.Kind, k devices.Kind) bool {
	for _, kk := range kinds {
		if kk == k {
			return true
		}
	}
	return false
}

// --------------------------------------------------------------------------
// Waypoint lifecycle (driven by the flight orchestrator)

// WaypointReached grants the virtual drone its waypoint: device access
// opens, flight control is activated if requested, and apps get
// waypointActive.
func (v *VDC) WaypointReached(name string, idx int) error {
	vd, err := v.Get(name)
	if err != nil {
		return err
	}
	vd.mu.Lock()
	vd.started = true
	vd.atWaypoint = true
	vd.curWaypoint = idx
	vd.completeRequested = false
	wp := vd.Def.Waypoints[idx]
	fc := vd.Def.HasFlightControl()
	vd.mu.Unlock()

	// Other parties' continuous devices are suspended for privacy while
	// this virtual drone operates.
	v.suspendOthers(name, true)

	if fc {
		if err := v.drone.Proxy.Activate(name, wp); err != nil {
			return err
		}
	}
	v.drone.Tel.Emit(vd.key, kGrant, int64(idx), 0, "")
	vd.deliver(sdk.Event{Kind: sdk.EventWaypointActive, Waypoint: wp})
	return nil
}

// WaypointLeft revokes the waypoint grant: apps get waypointInactive, flight
// control is withdrawn, and processes still holding waypoint devices after
// notification are terminated.
func (v *VDC) WaypointLeft(name string, idx int) error {
	vd, err := v.Get(name)
	if err != nil {
		return err
	}
	vd.mu.Lock()
	wp := vd.Def.Waypoints[idx]
	fc := vd.Def.HasFlightControl()
	vd.mu.Unlock()

	// Notify first: apps are expected to voluntarily disable device access.
	vd.deliver(sdk.Event{Kind: sdk.EventWaypointInactive, Waypoint: wp})

	// Flight-control withdrawal is a security boundary: a VFC left active
	// lets the tenant keep flying past its waypoint grant. Run the rest of
	// the revocation (device kills, resume of other parties) regardless,
	// then report the failure to the caller.
	var deactivateErr error
	if fc {
		deactivateErr = v.drone.Proxy.Deactivate(name)
	}

	vd.mu.Lock()
	vd.atWaypoint = false
	if idx < len(vd.visited) {
		vd.visited[idx] = true
	}
	all := true
	for _, seen := range vd.visited {
		all = all && seen
	}
	if all {
		vd.done = true
	}
	vd.mu.Unlock()

	mRevocations.Inc()
	v.drone.Tel.Emit(vd.key, kRevoke, int64(idx), 0, "")
	v.enforceRevocation(vd)
	v.suspendOthers(name, false)
	if deactivateErr != nil {
		return fmt.Errorf("core: withdrawing flight control from %s: %w", name, deactivateErr)
	}
	return nil
}

// enforceRevocation kills processes that kept using waypoint-only devices
// after the revocation notice.
func (v *VDC) enforceRevocation(vd *VirtualDrone) {
	continuous := vd.Def.ContinuousKinds()
	// Kill in sorted service order: each kill emits a trace event, and
	// replayed traces must not depend on map iteration order.
	svcs := make([]string, 0, len(devcon.ServiceDevices))
	for svc := range devcon.ServiceDevices {
		svcs = append(svcs, svc)
	}
	sort.Strings(svcs)
	for _, svc := range svcs {
		kinds := devcon.ServiceDevices[svc]
		if !hasKind(vd.Def.WaypointKinds(), kinds[0]) {
			continue
		}
		if hasKind(continuous, kinds[0]) {
			continue // still entitled between waypoints
		}
		for _, pid := range v.drone.DevCon.ActiveUsers(svc, vd.Name) {
			vd.Instance.ActivityManager().KillProcess(pid)
			mKills.Inc()
			v.drone.Tel.Emit(vd.key, kKill, int64(pid), 0, svc)
		}
	}
	v.drone.DevCon.ReleaseContainer(vd.Name)
}

// suspendOthers suspends or resumes continuous device access of every
// other virtual drone, notifying those whose window state changes.
func (v *VDC) suspendOthers(active string, suspend bool) {
	kind := sdk.EventResumeContinuous
	if suspend {
		kind = sdk.EventSuspendContinuous
	}
	for _, other := range v.snapshot() {
		if other.Name == active {
			continue
		}
		other.mu.Lock()
		shouldNotify := other.started && !other.done && other.suspended != suspend && len(other.Def.ContinuousDevices) > 0
		other.suspended = suspend
		other.mu.Unlock()
		if shouldNotify {
			other.deliver(sdk.Event{Kind: kind})
		}
	}
}

// snapshot returns every virtual drone in name order — callers notify
// and tick apps through it, so its order must be replay-stable.
func (v *VDC) snapshot() []*VirtualDrone {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]*VirtualDrone, 0, len(v.vds))
	for _, vd := range v.vds {
		out = append(out, vd)
	}
	slices.SortFunc(out, func(a, b *VirtualDrone) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// MeterActive charges dwell time and energy against the active virtual
// drone's allotment, delivering low warnings once below 20%, and reports
// whether the allotment is exhausted (control must be taken away).
func (v *VDC) MeterActive(name string, seconds, joules float64) bool {
	vd, err := v.Get(name)
	if err != nil {
		return true
	}
	vd.Allotment.Consume(seconds, joules)
	mEnergySeconds.Add(seconds)
	mEnergyJoules.Add(joules)
	timeLow, energyLow := vd.Allotment.Low(0.2)
	exhausted := vd.Allotment.Exhausted()
	vd.mu.Lock()
	notifyTime := timeLow && !vd.warnedTime
	notifyEnergy := energyLow && !vd.warnedEnergy
	firstExhaustion := exhausted && !vd.warnedExhausted
	vd.warnedTime = vd.warnedTime || timeLow
	vd.warnedEnergy = vd.warnedEnergy || energyLow
	vd.warnedExhausted = vd.warnedExhausted || exhausted
	vd.mu.Unlock()
	if notifyTime {
		v.drone.Tel.Emit(vd.key, kLowTime, int64(vd.Allotment.TimeLeftS()), 0, "")
		vd.deliver(sdk.Event{Kind: sdk.EventLowTime, Remaining: int(vd.Allotment.TimeLeftS())})
	}
	if notifyEnergy {
		v.drone.Tel.Emit(vd.key, kLowEnergy, int64(vd.Allotment.EnergyLeftJ()), 0, "")
		vd.deliver(sdk.Event{Kind: sdk.EventLowEnergy, Remaining: int(vd.Allotment.EnergyLeftJ())})
	}
	if firstExhaustion {
		mExhaustions.Inc()
		usedS, usedJ := vd.Allotment.Used()
		v.drone.Tel.Emit(vd.key, kExhausted, int64(usedS), int64(usedJ), "")
	}
	return exhausted && !v.meterFault.Load()
}

// BreakMeter injects an enforcement fault for negative controls: from
// then on, MeterActive meters but never reports exhaustion.
func (v *VDC) BreakMeter() { v.meterFault.Store(true) }

// TickTransit runs periodic work for virtual drones operating between their
// waypoints with continuous device access (e.g. a traffic-survey app filming
// along the route).
func (v *VDC) TickTransit(dt float64) {
	for _, vd := range v.snapshot() {
		vd.mu.Lock()
		inWindow := vd.started && !vd.done && !vd.atWaypoint && !vd.suspended &&
			len(vd.Def.ContinuousDevices) > 0
		vd.mu.Unlock()
		if inWindow {
			vd.tick(dt)
		}
	}
}

// TickActive runs periodic app work for the named virtual drone while it
// holds its waypoint — the counterpart of TickTransit for the dwell phase,
// used by flight orchestrators that drive apps tick-by-tick.
func (v *VDC) TickActive(name string, dt float64) {
	vd, err := v.Get(name)
	if err != nil {
		return
	}
	vd.mu.Lock()
	at := vd.atWaypoint
	vd.mu.Unlock()
	if at {
		vd.tick(dt)
	}
}

// RelayBreaches forwards geofence transitions to apps as SDK events and to
// clk as Breach/Recovered notes. Clocks call it once per tick, after stepping.
func (v *VDC) RelayBreaches(clk Clock) {
	for _, vd := range v.snapshot() {
		rec := vd.VFC.Recovering()
		vd.mu.Lock()
		opened, closed := rec && !vd.breachOpen, !rec && vd.breachOpen
		vd.breachOpen = rec
		if opened {
			vd.breaches++
		}
		vd.mu.Unlock()
		switch {
		case opened:
			v.NotifyBreach(vd.Name)
			clk.Note(Milestone{Kind: Breach, Task: vd.Name})
		case closed:
			v.NotifyControlReturned(vd.Name)
			clk.Note(Milestone{Kind: Recovered, Task: vd.Name})
		}
	}
}

// NotifyBreach delivers geofenceBreached to the virtual drone's apps.
func (v *VDC) NotifyBreach(name string) {
	if vd, err := v.Get(name); err == nil {
		v.drone.Tel.Emit(vd.key, kVdcBreach, 0, 0, "")
		vd.deliver(sdk.Event{Kind: sdk.EventGeofenceBreached})
	}
}

// NotifyControlReturned re-delivers waypointActive after a geofence
// recovery, per the paper's breach protocol.
func (v *VDC) NotifyControlReturned(name string) {
	vd, err := v.Get(name)
	if err != nil {
		return
	}
	vd.mu.Lock()
	at, idx := vd.atWaypoint, vd.curWaypoint
	var wp geo.Waypoint
	if idx < len(vd.Def.Waypoints) {
		wp = vd.Def.Waypoints[idx]
	}
	vd.mu.Unlock()
	if at {
		v.drone.Tel.Emit(vd.key, kControlReturned, int64(idx), 0, "")
		vd.deliver(sdk.Event{Kind: sdk.EventWaypointActive, Waypoint: wp})
	}
}

// Save gracefully stops the virtual drone's apps (running their
// onSaveInstanceState), persists app state into the container image,
// checkpoints the container, tears the virtual drone down, and returns the
// VDR entry that allows it to be resumed on a later flight.
func (v *VDC) Save(name string) (cloud.VDREntry, error) {
	vd, err := v.Get(name)
	if err != nil {
		return cloud.VDREntry{}, err
	}
	// Graceful app shutdown via the activity lifecycle.
	for _, pkg := range vd.Instance.Apps() {
		_ = vd.Instance.StopApp(pkg)
		if app, err := vd.Instance.App(pkg); err == nil {
			if saved := app.SavedState(); len(saved) > 0 {
				vd.Container.WriteFile(instanceStatePath(pkg), saved)
			}
		}
	}
	// Persist VDC-level flight progress so the drone resumes rather than
	// restarting.
	vd.mu.Lock()
	progress := progressState{
		Started:     vd.started,
		Visited:     append([]bool(nil), vd.visited...),
		TimeUsedS:   vd.Def.MaxDuration - vd.Allotment.TimeLeftS(),
		EnergyUsedJ: vd.Def.EnergyAllotted - vd.Allotment.EnergyLeftJ(),
		Marked:      append([]string(nil), vd.marked...),
	}
	vd.mu.Unlock()
	if raw, err := json.Marshal(progress); err == nil {
		vd.Container.WriteFile(progressPath, raw)
	}
	checkpoint, err := vd.Container.Checkpoint()
	if err != nil {
		return cloud.VDREntry{}, err
	}
	defJSON, err := vd.Def.Encode()
	if err != nil {
		return cloud.VDREntry{}, err
	}

	// Black-box dump before teardown: the save is the end of this drone's
	// flight, so archive its recent event history alongside the VDR entry.
	mSaves.Inc()
	visited, total := vd.Progress()
	v.drone.Tel.Emit(vd.key, kSave, int64(visited), int64(total), "")
	v.drone.Tel.Dump(vd.key, "vdr-save", map[string]float64{
		"visited":   float64(visited),
		"waypoints": float64(total),
	})

	// Tear down.
	_ = v.drone.Runtime.Stop(name)
	_ = v.drone.Runtime.Remove(name)
	v.drone.Driver.RemoveNamespace(name)
	v.drone.Proxy.RemoveVFC(name)
	v.drone.DevCon.ReleaseContainer(name)
	v.mu.Lock()
	delete(v.vds, name)
	v.mu.Unlock()

	return cloud.VDREntry{
		Name:       name,
		Owner:      vd.Def.Owner,
		Definition: defJSON,
		Checkpoint: checkpoint,
		Completed:  vd.Done(),
	}, nil
}
