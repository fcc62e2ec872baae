package core

import (
	"errors"
	"fmt"
	"testing"

	"androne/internal/android"
	"androne/internal/container"
	"androne/internal/devcon"
	"androne/internal/devices"
	"androne/internal/geo"
	"androne/internal/sdk"
)

var testHome = geo.Position{LatLon: geo.LatLon{Lat: 43.6084298, Lon: -85.8110359}, Alt: 0}

func newTestDrone(t *testing.T) *Drone {
	t.Helper()
	d, err := NewDrone(testHome, t.Name())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func defWith(name string, waypoints int, apps ...string) *Definition {
	d := &Definition{
		Name:            name,
		Owner:           "alice",
		MaxDuration:     600,
		EnergyAllotted:  45000,
		WaypointDevices: []string{"camera", sdk.FlightControlDevice},
		Apps:            apps,
	}
	for i := 0; i < waypoints; i++ {
		d.Waypoints = append(d.Waypoints, geo.Waypoint{
			Position: geo.Position{
				LatLon: geo.OffsetNE(testHome.LatLon, float64(50+i*40), float64(i*30)),
				Alt:    15,
			},
			MaxRadius: 40,
		})
	}
	return d
}

func TestDroneBoot(t *testing.T) {
	d := newTestDrone(t)
	running := d.Runtime.Running()
	if len(running) != 2 { // devcon + flightcon
		t.Fatalf("running containers = %v", running)
	}
	// Device and flight containers consume their reservations.
	if used := d.Runtime.MemoryUsedMB(); used != MemDeviceConMB+MemFlightConMB {
		t.Fatalf("memory used = %d", used)
	}
	// Hardware is held by the device container.
	if _, err := d.Registry.Open("camera0", "intruder"); !errors.Is(err, devices.ErrBusy) {
		t.Fatalf("camera open: %v", err)
	}
}

func TestCreateVirtualDrones(t *testing.T) {
	d := newTestDrone(t)
	for i := 1; i <= 3; i++ {
		def := defWith(fmt.Sprintf("vd%d", i), 1)
		if _, err := d.VDC.Create(def); err != nil {
			t.Fatalf("vdrone %d: %v", i, err)
		}
	}
	if got := d.VDC.List(); len(got) != 3 {
		t.Fatalf("list = %v", got)
	}
	// A fourth fails for lack of memory without disturbing the others
	// (§6.3: starting a fourth virtual drone fails due to lack of memory).
	_, err := d.VDC.Create(defWith("vd4", 1))
	if !errors.Is(err, container.ErrOutOfMemory) {
		t.Fatalf("fourth vdrone: %v, want ErrOutOfMemory", err)
	}
	if got := d.VDC.List(); len(got) != 3 {
		t.Fatalf("after failed create, list = %v", got)
	}
	if len(d.Runtime.Running()) != 5 {
		t.Fatalf("running = %v", d.Runtime.Running())
	}
}

func TestRelayBreachesZeroAlloc(t *testing.T) {
	// Clocks relay breaches every tick; with no transition to note, the
	// walk over the registry allocates nothing, and List and the relay
	// see the drones in name order.
	d := newTestDrone(t)
	for _, name := range []string{"vd3", "vd1", "vd2"} {
		if _, err := d.VDC.Create(defWith(name, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if got := fmt.Sprint(d.VDC.List()); got != "[vd1 vd2 vd3]" {
		t.Fatalf("list = %s", got)
	}
	clk := &Lockstep{Drone: d}
	if allocs := testing.AllocsPerRun(100, func() { d.VDC.RelayBreaches(clk) }); allocs != 0 {
		t.Fatalf("RelayBreaches allocates %.1f times per tick with three virtual drones, want 0", allocs)
	}
}

func TestLockstepTickZeroAlloc(t *testing.T) {
	// The checked clock steps the drone, relays breaches and runs the
	// invariants over the registry itself: with nothing to note, a tick
	// allocates nothing.
	d := newTestDrone(t)
	for _, name := range []string{"vd3", "vd1", "vd2"} {
		if _, err := d.VDC.Create(defWith(name, 1)); err != nil {
			t.Fatal(err)
		}
	}
	clk := &Lockstep{Drone: d}
	if allocs := testing.AllocsPerRun(100, func() { clk.Tick(Transit) }); allocs != 0 {
		t.Fatalf("Lockstep.Tick allocates %.1f times per tick with three virtual drones, want 0", allocs)
	}
	if len(clk.Violations) != 0 {
		t.Fatalf("violations on an idle drone: %v", clk.Violations)
	}
}

func TestCreateValidation(t *testing.T) {
	d := newTestDrone(t)
	def := defWith("", 1)
	if _, err := d.VDC.Create(def); !errors.Is(err, ErrNoName) {
		t.Fatalf("unnamed: %v", err)
	}
	ok := defWith("dup", 1)
	if _, err := d.VDC.Create(ok); err != nil {
		t.Fatal(err)
	}
	if _, err := d.VDC.Create(ok); !errors.Is(err, ErrVDExists) {
		t.Fatalf("duplicate: %v", err)
	}
	if _, err := d.VDC.Get("missing"); !errors.Is(err, ErrNoVD) {
		t.Fatalf("get missing: %v", err)
	}
}

func TestDevicePolicyWaypointGating(t *testing.T) {
	d := newTestDrone(t)
	def := defWith("vd1", 2)
	vd, err := d.VDC.Create(def)
	if err != nil {
		t.Fatal(err)
	}

	// Before any waypoint: camera denied.
	if d.VDC.AllowDevice("vd1", devices.KindCamera) {
		t.Fatal("camera allowed before waypoint")
	}
	// Device container and flight container are always allowed.
	if !d.VDC.AllowDevice(devcon.NamespaceName, devices.KindGPS) ||
		!d.VDC.AllowDevice(FlightConName, devices.KindGPS) {
		t.Fatal("system containers denied")
	}
	// Unknown containers denied.
	if d.VDC.AllowDevice("rogue", devices.KindCamera) {
		t.Fatal("unknown container allowed")
	}

	// At the waypoint: camera allowed.
	if err := d.VDC.WaypointReached("vd1", 0); err != nil {
		t.Fatal(err)
	}
	if !d.VDC.AllowDevice("vd1", devices.KindCamera) {
		t.Fatal("camera denied at waypoint")
	}
	at, idx := vd.AtWaypoint()
	if !at || idx != 0 {
		t.Fatalf("at = %v, idx = %d", at, idx)
	}

	// After leaving: denied again.
	if err := d.VDC.WaypointLeft("vd1", 0); err != nil {
		t.Fatal(err)
	}
	if d.VDC.AllowDevice("vd1", devices.KindCamera) {
		t.Fatal("camera allowed after leaving waypoint")
	}
	if vd.Done() {
		t.Fatal("done after first of two waypoints")
	}
	if err := d.VDC.WaypointReached("vd1", 1); err != nil {
		t.Fatal(err)
	}
	if err := d.VDC.WaypointLeft("vd1", 1); err != nil {
		t.Fatal(err)
	}
	if !vd.Done() {
		t.Fatal("not done after all waypoints")
	}
}

func TestDevicePolicyContinuousAndSuspension(t *testing.T) {
	d := newTestDrone(t)
	defA := defWith("vd-a", 2)
	defA.ContinuousDevices = []string{"gps"}
	if _, err := d.VDC.Create(defA); err != nil {
		t.Fatal(err)
	}
	defB := defWith("vd-b", 1)
	if _, err := d.VDC.Create(defB); err != nil {
		t.Fatal(err)
	}

	// Continuous access starts only once the first waypoint is reached.
	if d.VDC.AllowDevice("vd-a", devices.KindGPS) {
		t.Fatal("continuous access before first waypoint")
	}
	if err := d.VDC.WaypointReached("vd-a", 0); err != nil {
		t.Fatal(err)
	}
	if err := d.VDC.WaypointLeft("vd-a", 0); err != nil {
		t.Fatal(err)
	}
	// Between its waypoints: GPS allowed, camera (waypoint-only) denied.
	if !d.VDC.AllowDevice("vd-a", devices.KindGPS) {
		t.Fatal("continuous GPS denied between waypoints")
	}
	if d.VDC.AllowDevice("vd-a", devices.KindCamera) {
		t.Fatal("waypoint camera allowed between waypoints")
	}

	// While vd-b's waypoint is visited, vd-a's continuous access is
	// suspended for privacy.
	if err := d.VDC.WaypointReached("vd-b", 0); err != nil {
		t.Fatal(err)
	}
	if d.VDC.AllowDevice("vd-a", devices.KindGPS) {
		t.Fatal("continuous access not suspended at other party's waypoint")
	}
	if err := d.VDC.WaypointLeft("vd-b", 0); err != nil {
		t.Fatal(err)
	}
	if !d.VDC.AllowDevice("vd-a", devices.KindGPS) {
		t.Fatal("continuous access not resumed")
	}

	// After vd-a finishes its last waypoint, access ends.
	if err := d.VDC.WaypointReached("vd-a", 1); err != nil {
		t.Fatal(err)
	}
	if err := d.VDC.WaypointLeft("vd-a", 1); err != nil {
		t.Fatal(err)
	}
	if d.VDC.AllowDevice("vd-a", devices.KindGPS) {
		t.Fatal("continuous access after completion")
	}
}

func TestEndToEndDeviceAccessThroughBinder(t *testing.T) {
	// An app in a virtual drone reaches the camera through its own
	// ServiceManager -> shared CameraService -> its AM permission check ->
	// VDC policy, and is denied or allowed by flight phase.
	d := newTestDrone(t)
	def := defWith("vd1", 1)
	vd, err := d.VDC.Create(def)
	if err != nil {
		t.Fatal(err)
	}
	vd.Instance.ActivityManager().Grant(10001, android.PermCamera)
	app := android.NewClient(vd.Instance.Namespace(), 10001)
	h, err := app.GetService(devcon.SvcCamera)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := app.Call(h, devcon.CmdCapture, nil); !errors.Is(err, devcon.ErrPolicyDenied) {
		t.Fatalf("pre-waypoint capture: %v, want ErrPolicyDenied", err)
	}
	if err := d.VDC.WaypointReached("vd1", 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := app.Call(h, devcon.CmdCapture, nil); err != nil {
		t.Fatalf("capture at waypoint: %v", err)
	}
}

func TestRevocationEnforcement(t *testing.T) {
	// An app that keeps using the camera after waypointInactive is
	// terminated by the VDC.
	d := newTestDrone(t)
	def := defWith("vd1", 1)
	vd, err := d.VDC.Create(def)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.VDC.WaypointReached("vd1", 0); err != nil {
		t.Fatal(err)
	}

	// Simulate a rogue app process: its pid has accessed the camera and
	// never calls CmdRelease.
	vd.Instance.ActivityManager().Grant(10001, android.PermCamera)
	rogueApp := vd.Instance.Install("com.example.rogue", 10001, nil)
	if err := vd.Instance.StartApp("com.example.rogue"); err != nil {
		t.Fatal(err)
	}
	rogue := rogueApp.Client()
	h, err := rogue.GetService(devcon.SvcCamera)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := rogue.Call(h, devcon.CmdCapture, nil); err != nil {
		t.Fatal(err)
	}
	users := d.DevCon.ActiveUsers(devcon.SvcCamera, "vd1")
	if len(users) != 1 {
		t.Fatalf("active users = %v", users)
	}

	if err := d.VDC.WaypointLeft("vd1", 0); err != nil {
		t.Fatal(err)
	}
	if rogueApp.State() != android.AppKilled {
		t.Fatalf("rogue app state = %v, want killed", rogueApp.State())
	}
	if users := d.DevCon.ActiveUsers(devcon.SvcCamera, "vd1"); len(users) != 0 {
		t.Fatalf("usage tracking not cleared: %v", users)
	}
}

// statefulApp saves and restores a counter through the activity lifecycle.
type statefulApp struct {
	restored string
	state    string
}

func (a *statefulApp) OnCreate(app *android.App, saved []byte) { a.restored = string(saved) }
func (a *statefulApp) OnSaveInstanceState(app *android.App) []byte {
	return []byte(a.state)
}
func (a *statefulApp) OnDestroy(app *android.App) {}

func TestSaveAndRestoreViaVDR(t *testing.T) {
	store := container.NewStore()
	d1, err := NewDroneWithStore(testHome, "drone-1", store)
	if err != nil {
		t.Fatal(err)
	}
	app := &statefulApp{state: "waypoint 1 of 2 done"}
	d1.VDC.RegisterAppFactory("com.example.survey", func(ctx *AppContext) android.Lifecycle { return app })

	def := defWith("vd1", 2, "com.example.survey")
	vd, err := d1.VDC.Create(def)
	if err != nil {
		t.Fatal(err)
	}
	if app.restored != "" {
		t.Fatalf("fresh app restored %q", app.restored)
	}
	// Fly one waypoint, write a data file, then save to the VDR.
	if err := d1.VDC.WaypointReached("vd1", 0); err != nil {
		t.Fatal(err)
	}
	if err := d1.VDC.WaypointLeft("vd1", 0); err != nil {
		t.Fatal(err)
	}
	vd.Container.WriteFile("/data/com.example.survey/partial.csv", []byte("rows"))

	entry, err := d1.VDC.Save("vd1")
	if err != nil {
		t.Fatal(err)
	}
	if entry.Completed {
		t.Fatal("entry marked completed with one waypoint left")
	}
	if entry.Owner != "alice" {
		t.Fatalf("owner = %q", entry.Owner)
	}
	// The virtual drone is gone from the drone.
	if _, err := d1.VDC.Get("vd1"); !errors.Is(err, ErrNoVD) {
		t.Fatal("vdrone still present after save")
	}

	// Reinstate on different drone hardware sharing the base image store.
	d2, err := NewDroneWithStore(testHome, "drone-2", store)
	if err != nil {
		t.Fatal(err)
	}
	app2 := &statefulApp{}
	d2.VDC.RegisterAppFactory("com.example.survey", func(ctx *AppContext) android.Lifecycle { return app2 })
	vd2, err := d2.VDC.Restore(entry)
	if err != nil {
		t.Fatal(err)
	}
	if app2.restored != "waypoint 1 of 2 done" {
		t.Fatalf("restored state = %q", app2.restored)
	}
	// Container data survived the round trip.
	data, err := vd2.Container.ReadFile("/data/com.example.survey/partial.csv")
	if err != nil || string(data) != "rows" {
		t.Fatalf("container data = %q, %v", data, err)
	}
}

func TestMeterActiveWarningsAndExhaustion(t *testing.T) {
	d := newTestDrone(t)
	def := defWith("vd1", 1, "com.example.app")
	def.MaxDuration = 10
	def.EnergyAllotted = 1000

	var warnings []string
	d.VDC.RegisterAppFactory("com.example.app", func(ctx *AppContext) android.Lifecycle {
		ctx.SDK.RegisterWaypointListener(sdk.ListenerFuncs{
			LowEnergy: func(int) { warnings = append(warnings, "energy") },
			LowTime:   func(int) { warnings = append(warnings, "time") },
		})
		return nil
	})
	if _, err := d.VDC.Create(def); err != nil {
		t.Fatal(err)
	}

	// Consume 85% of time: one low-time warning, once.
	if exhausted := d.VDC.MeterActive("vd1", 8.5, 100); exhausted {
		t.Fatal("exhausted too early")
	}
	d.VDC.MeterActive("vd1", 0.1, 10)
	count := 0
	for _, w := range warnings {
		if w == "time" {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("low-time warnings = %d, want 1 (got %v)", count, warnings)
	}

	// Exhaust energy: metering reports exhaustion.
	if exhausted := d.VDC.MeterActive("vd1", 0.1, 2000); !exhausted {
		t.Fatal("not exhausted after energy overrun")
	}
}

func TestSDKHostIntegration(t *testing.T) {
	d := newTestDrone(t)
	var s *sdk.SDK
	d.VDC.RegisterAppFactory("com.example.app", func(ctx *AppContext) android.Lifecycle {
		s = ctx.SDK
		return nil
	})
	def := defWith("vd1", 1, "com.example.app")
	vd, err := d.VDC.Create(def)
	if err != nil {
		t.Fatal(err)
	}
	if s == nil {
		t.Fatal("factory not invoked")
	}
	if s.GetAllottedEnergyLeft() != 45000 || s.GetAllottedTimeLeft() != 600 {
		t.Fatalf("allotments = %d J, %d s", s.GetAllottedEnergyLeft(), s.GetAllottedTimeLeft())
	}
	if s.GetFlightControllerIP() == "" {
		t.Fatal("no VFC address")
	}
	// Marking a missing file fails; a real one succeeds.
	if err := s.MarkFileForUser("/data/none"); err == nil {
		t.Fatal("marked missing file")
	}
	vd.Container.WriteFile("/data/out.mp4", []byte("x"))
	if err := s.MarkFileForUser("/data/out.mp4"); err != nil {
		t.Fatal(err)
	}
	if files := vd.MarkedFiles(); len(files) != 1 || files[0] != "/data/out.mp4" {
		t.Fatalf("marked = %v", files)
	}
	if vd.CompleteRequested() {
		t.Fatal("premature completion")
	}
	s.WaypointCompleted()
	if !vd.CompleteRequested() {
		t.Fatal("completion not recorded")
	}
}

func TestDefinitionStoredInContainer(t *testing.T) {
	d := newTestDrone(t)
	vd, err := d.VDC.Create(defWith("vd1", 1))
	if err != nil {
		t.Fatal(err)
	}
	data, err := vd.Container.ReadFile(definitionPath)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseDefinition(data)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Name != "vd1" {
		t.Fatalf("stored definition name = %q", parsed.Name)
	}
}

func TestBreachNotifications(t *testing.T) {
	d := newTestDrone(t)
	var events []string
	d.VDC.RegisterAppFactory("com.test.watch", func(ctx *AppContext) android.Lifecycle {
		ctx.SDK.RegisterWaypointListener(sdk.ListenerFuncs{
			Breached: func() { events = append(events, "breached") },
			Active:   func(geo.Waypoint) { events = append(events, "active") },
		})
		return nil
	})
	vd, err := d.VDC.Create(defWith("vd1", 1, "com.test.watch"))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.VDC.WaypointReached("vd1", 0); err != nil {
		t.Fatal(err)
	}
	d.VDC.NotifyBreach("vd1")
	d.VDC.NotifyControlReturned("vd1")
	// NotifyControlReturned when not at a waypoint is a no-op.
	if err := d.VDC.WaypointLeft("vd1", 0); err != nil {
		t.Fatal(err)
	}
	d.VDC.NotifyControlReturned("vd1")
	d.VDC.NotifyBreach("no-such") // unknown names are ignored
	d.VDC.NotifyControlReturned("no-such")

	want := []string{"active", "breached", "active"}
	if len(events) != len(want) {
		t.Fatalf("events = %v, want %v", events, want)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("events = %v, want %v", events, want)
		}
	}
	if vd.SDKFor("com.test.watch") == nil {
		t.Fatal("SDKFor")
	}
	if vd.SDKFor("missing") != nil {
		t.Fatal("SDKFor missing package")
	}
	if vd.UIDFor("com.test.watch") != 10001 {
		t.Fatalf("UIDFor = %d", vd.UIDFor("com.test.watch"))
	}
}
