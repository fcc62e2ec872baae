package core

import (
	"reflect"
	"strings"
	"testing"

	"androne/internal/android"
	"androne/internal/geo"
	"androne/internal/planner"
	"androne/internal/sdk"
)

// quickApp completes its waypoint after a few ticks and marks one file.
type quickApp struct {
	ctx    *AppContext
	pkg    string
	active bool
	ticks  int
}

func newQuickAppFactory(pkg string) AppFactory {
	return func(ctx *AppContext) android.Lifecycle {
		a := &quickApp{ctx: ctx, pkg: pkg}
		ctx.SDK.RegisterWaypointListener(sdk.ListenerFuncs{
			Active:   func(geo.Waypoint) { a.active = true },
			Inactive: func(geo.Waypoint) { a.active = false },
		})
		return a
	}
}

func (a *quickApp) OnCreate(app *android.App, saved []byte)     {}
func (a *quickApp) OnSaveInstanceState(app *android.App) []byte { return nil }
func (a *quickApp) OnDestroy(app *android.App)                  {}

func (a *quickApp) Tick(dt float64) {
	if !a.active {
		return
	}
	a.ticks++
	if a.ticks == 5 {
		path := "/data/" + a.pkg + "/result.txt"
		a.ctx.VD.Container.WriteFile(path, []byte("task output"))
		_ = a.ctx.SDK.MarkFileForUser(path)
		a.ctx.SDK.WaypointCompleted()
	}
}

func routeFor(t *testing.T, d *Drone, defs ...*Definition) planner.Route {
	t.Helper()
	cfg := planner.DefaultConfig(d.Home())
	var tasks []planner.Task
	for _, def := range defs {
		tasks = append(tasks, planner.Task{
			ID: def.Name, Waypoints: def.Waypoints,
			EnergyJ: def.EnergyAllotted, DurationS: def.MaxDuration,
		})
	}
	plan, err := cfg.Plan(tasks)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Routes) != 1 {
		t.Fatalf("routes = %d, want 1", len(plan.Routes))
	}
	return plan.Routes[0]
}

func TestExecuteRouteSingleDrone(t *testing.T) {
	d := newTestDrone(t)
	d.VDC.RegisterAppFactory("com.test.quick", newQuickAppFactory("com.test.quick"))
	def := defWith("vd1", 1, "com.test.quick")
	def.MaxDuration = 120
	if _, err := d.VDC.Create(def); err != nil {
		t.Fatal(err)
	}
	env := NewCloudEnv()

	report, err := d.ExecuteRoute(routeFor(t, d, def), env)
	if err != nil {
		t.Fatal(err)
	}
	rep := report.PerDrone["vd1"]
	if rep == nil {
		t.Fatal("no per-drone report")
	}
	if !rep.Completed {
		t.Fatal("virtual drone did not complete")
	}
	if rep.WaypointsVisited != 1 {
		t.Fatalf("waypoints visited = %d", rep.WaypointsVisited)
	}
	if len(rep.Files) != 1 {
		t.Fatalf("files = %v", rep.Files)
	}
	if !report.ReturnedHome {
		t.Fatal("drone did not return home")
	}
	if !report.AED.Pass {
		t.Fatalf("AED failed: %+v", report.AED)
	}
	if report.FlightEnergyJ <= 0 || report.DurationS <= 0 {
		t.Fatalf("report totals: %+v", report)
	}

	// Files offloaded to cloud storage under the owner's account.
	files := env.Storage.List("alice")
	if len(files) != 1 || !strings.Contains(files[0], "result.txt") {
		t.Fatalf("cloud files = %v", files)
	}
	data, err := env.Storage.Get("alice", files[0])
	if err != nil || string(data) != "task output" {
		t.Fatalf("file contents = %q, %v", data, err)
	}

	// The virtual drone was saved to the VDR as completed, and the drone is
	// clean.
	entry, err := env.VDR.Load("vd1")
	if err != nil {
		t.Fatal(err)
	}
	if !entry.Completed {
		t.Fatal("VDR entry not completed")
	}
	if len(d.VDC.List()) != 0 {
		t.Fatalf("vdrones remain: %v", d.VDC.List())
	}
	// Allotment was metered.
	if rep.TimeUsedS <= 0 || rep.TimeUsedS > def.MaxDuration {
		t.Fatalf("time used = %g", rep.TimeUsedS)
	}
}

func TestExecuteRouteAllotmentExhaustion(t *testing.T) {
	// An app that never completes is cut off when its time allotment
	// exhausts, and the flight continues to completion.
	d := newTestDrone(t)
	d.VDC.RegisterAppFactory("com.test.hog", func(ctx *AppContext) android.Lifecycle { return nil })
	def := defWith("hog", 1, "com.test.hog")
	def.MaxDuration = 3 // seconds of dwell
	if _, err := d.VDC.Create(def); err != nil {
		t.Fatal(err)
	}
	env := NewCloudEnv()
	report, err := d.ExecuteRoute(routeFor(t, d, def), env)
	if err != nil {
		t.Fatal(err)
	}
	rep := report.PerDrone["hog"]
	if rep.TimeUsedS < 2.9 {
		t.Fatalf("time used = %g, want allotment consumed", rep.TimeUsedS)
	}
	if !report.ReturnedHome {
		t.Fatal("flight did not continue after exhaustion")
	}
	// The vdrone visited its waypoint but is saved (not completed is fine —
	// it got its chance; Done() is true since the waypoint was visited).
	if rep.WaypointsVisited != 1 {
		t.Fatalf("visited = %d", rep.WaypointsVisited)
	}
}

func TestExecuteRouteMultiTenant(t *testing.T) {
	// The §6.6 experiment shape: three virtual drones on one flight — an
	// autonomous app, an interactive-style app, and direct access — all
	// visited in one route, files offloaded per owner.
	if testing.Short() {
		t.Skip("long integration test")
	}
	d := newTestDrone(t)
	for _, pkg := range []string{"com.test.a", "com.test.b", "com.test.c"} {
		d.VDC.RegisterAppFactory(pkg, newQuickAppFactory(pkg))
	}

	defs := []*Definition{
		defWith("vd-a", 1, "com.test.a"),
		defWith("vd-b", 1, "com.test.b"),
		defWith("vd-c", 1, "com.test.c"),
	}
	defs[1].Owner = "bob"
	defs[2].Owner = "carol"
	// Spread the waypoints.
	defs[1].Waypoints[0].Position.LatLon = geo.OffsetNE(testHome.LatLon, -80, 60)
	defs[2].Waypoints[0].Position.LatLon = geo.OffsetNE(testHome.LatLon, 40, -90)
	for _, def := range defs {
		def.MaxDuration = 120
		if _, err := d.VDC.Create(def); err != nil {
			t.Fatal(err)
		}
	}

	env := NewCloudEnv()
	report, err := d.ExecuteRoute(routeFor(t, d, defs...), env)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"vd-a", "vd-b", "vd-c"} {
		rep := report.PerDrone[name]
		if rep == nil || !rep.Completed {
			t.Fatalf("%s: report = %+v", name, rep)
		}
	}
	if !report.ReturnedHome {
		t.Fatal("did not return home")
	}
	if !report.AED.Pass {
		t.Fatalf("AED: %+v", report.AED)
	}
	// Each owner got their own files, isolated.
	for _, owner := range []string{"alice", "bob", "carol"} {
		if files := env.Storage.List(owner); len(files) != 1 {
			t.Fatalf("%s files = %v", owner, files)
		}
	}
	// Three VDR entries.
	if entries := env.VDR.Manifests(); len(entries) != 3 {
		t.Fatalf("VDR entries = %d", len(entries))
	}
}

func TestExecuteRouteUnknownTask(t *testing.T) {
	d := newTestDrone(t)
	def := defWith("ghost", 1)
	env := NewCloudEnv()
	_, err := d.ExecuteRoute(routeFor(t, d, def), env)
	if err == nil {
		t.Fatal("route over uncreated vdrone succeeded")
	}
}

// resumableApp records progress through saved instance state: it completes
// one waypoint per flight.
type resumableApp struct {
	ctx       *AppContext
	active    bool
	ticks     int
	completed int
	restored  int
}

func newResumableFactory() AppFactory {
	return func(ctx *AppContext) android.Lifecycle {
		a := &resumableApp{ctx: ctx}
		ctx.SDK.RegisterWaypointListener(sdk.ListenerFuncs{
			Active:   func(geo.Waypoint) { a.active = true; a.ticks = 0 },
			Inactive: func(geo.Waypoint) { a.active = false },
		})
		return a
	}
}

func (a *resumableApp) OnCreate(app *android.App, saved []byte) {
	if len(saved) > 0 {
		a.completed = int(saved[0])
		a.restored = a.completed
	}
}
func (a *resumableApp) OnSaveInstanceState(app *android.App) []byte {
	return []byte{byte(a.completed)}
}
func (a *resumableApp) OnDestroy(app *android.App) {}
func (a *resumableApp) Tick(dt float64) {
	if !a.active {
		return
	}
	a.ticks++
	if a.ticks == 3 {
		a.completed++
		a.ctx.SDK.WaypointCompleted()
	}
}

func TestExecutePlanMultiFlightResume(t *testing.T) {
	// A two-waypoint virtual drone whose dwell energy forces the planner to
	// split the work across two flights: the VDC saves it to the VDR after
	// flight one and restores it — app state, visited waypoints, spent
	// allotment — for flight two.
	d := newTestDrone(t)
	var app *resumableApp
	d.VDC.RegisterAppFactory("com.test.resume", func(ctx *AppContext) android.Lifecycle {
		lc := newResumableFactory()(ctx)
		app = lc.(*resumableApp)
		return lc
	})

	def := defWith("resume", 2, "com.test.resume")
	def.EnergyAllotted = 170000 // 85k per stop: one stop per 150k-budget flight
	def.MaxDuration = 240

	if _, err := d.VDC.Create(def); err != nil {
		t.Fatal(err)
	}
	cfg := planner.DefaultConfig(d.Home())
	plan, err := cfg.Plan([]planner.Task{{
		ID: "resume", Waypoints: def.Waypoints,
		EnergyJ: def.EnergyAllotted, DurationS: def.MaxDuration, Ordered: true,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Routes) < 2 {
		t.Fatalf("routes = %d, want battery split", len(plan.Routes))
	}

	env := NewCloudEnv()
	reports, err := d.ExecutePlan(plan, env)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(plan.Routes) {
		t.Fatalf("reports = %d", len(reports))
	}
	for i, r := range reports {
		if !r.ReturnedHome {
			t.Fatalf("flight %d did not return home", i)
		}
	}
	// The app was restored with one completed waypoint on flight two.
	if app.restored != 1 {
		t.Fatalf("app restored state = %d, want 1", app.restored)
	}
	// Final VDR entry shows completion.
	entry, err := env.VDR.Load("resume")
	if err != nil {
		t.Fatal(err)
	}
	if !entry.Completed {
		t.Fatal("virtual drone not completed after both flights")
	}
}

func TestExecutePlanMissingVDR(t *testing.T) {
	d := newTestDrone(t)
	def := defWith("ghost", 1)
	plan, err := planner.DefaultConfig(d.Home()).Plan([]planner.Task{{
		ID: "ghost", Waypoints: def.Waypoints, EnergyJ: 100, DurationS: 10,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.ExecutePlan(plan, NewCloudEnv()); err == nil {
		t.Fatal("plan over unknown vdrone succeeded")
	}
}

func TestExecuteRouteInWindAndGusts(t *testing.T) {
	// Robustness: the full workflow completes in a 5 m/s mean wind with
	// gusts — transit, waypoint handover, dwell, RTL — and the drone still
	// lands at home with a passing AED.
	if testing.Short() {
		t.Skip("long integration test")
	}
	d := newTestDrone(t)
	d.Sim.SetWind(5, -3, 1.5)
	d.VDC.RegisterAppFactory("com.test.windy", newQuickAppFactory("com.test.windy"))
	def := defWith("windy", 2, "com.test.windy")
	def.MaxDuration = 120
	if _, err := d.VDC.Create(def); err != nil {
		t.Fatal(err)
	}
	env := NewCloudEnv()
	report, err := d.ExecuteRoute(routeFor(t, d, def), env)
	if err != nil {
		t.Fatal(err)
	}
	rep := report.PerDrone["windy"]
	if !rep.Completed {
		t.Fatalf("windy flight incomplete: %+v", rep)
	}
	if !report.ReturnedHome {
		t.Fatal("did not return home in wind")
	}
	if !report.AED.Pass {
		t.Fatalf("AED in wind: %+v", report.AED)
	}
	// Wind costs energy: the flight drew more than a calm one would.
	if report.FlightEnergyJ <= 0 {
		t.Fatal("no energy recorded")
	}
}

// recordingClock is the lockstep clock that records each run of same-phase
// ticks and every milestone kind.
type recordingClock struct {
	Clock
	phases []Phase
	notes  []MilestoneKind
}

func (c *recordingClock) Tick(p Phase) bool {
	if n := len(c.phases); n == 0 || c.phases[n-1] != p {
		c.phases = append(c.phases, p)
	}
	return c.Clock.Tick(p)
}

func (c *recordingClock) Note(m Milestone) { c.notes = append(c.notes, m.Kind) }

// TestFlyOnRecordingClock flies a two-tenant route on a recording clock:
// the ticks pass through the phases in flight order, the milestones in
// workflow order, and Fly plus Offload report bit-identically to
// ExecuteRoute on a twin drone.
func TestFlyOnRecordingClock(t *testing.T) {
	twin := func() (*Drone, planner.Route) {
		d, err := NewDrone(testHome, "recording-clock")
		if err != nil {
			t.Fatal(err)
		}
		d.VDC.RegisterAppFactory("com.test.quick", newQuickAppFactory("com.test.quick"))
		a, b := defWith("vd1", 1, "com.test.quick"), defWith("vd2", 1, "com.test.quick")
		b.Waypoints[0].Position.LatLon = geo.OffsetNE(testHome.LatLon, -60, 20)
		for _, def := range []*Definition{a, b} {
			if _, err := d.VDC.Create(def); err != nil {
				t.Fatal(err)
			}
		}
		return d, routeFor(t, d, a, b)
	}

	d, route := twin()
	want, err := d.ExecuteRoute(route, NewCloudEnv())
	if err != nil {
		t.Fatal(err)
	}

	d, route = twin()
	clk := &recordingClock{Clock: &Lockstep{Drone: d}}
	got, err := d.Fly(route, clk)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Offload(NewCloudEnv(), clk, got); err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(got, want) {
		t.Errorf("Fly+Offload report %+v, ExecuteRoute %+v", got, want)
	}
	wantPhases := []Phase{Takeoff, Transit, Dwell, Transit, Dwell, RTL}
	if !reflect.DeepEqual(clk.phases, wantPhases) {
		t.Errorf("phases %v, want %v", clk.phases, wantPhases)
	}
	wantNotes := []MilestoneKind{Airborne,
		Transiting, Reached, DwellEnd, Left,
		Transiting, Reached, DwellEnd, Left,
		Returning, Landed, Offloaded, Saved, Offloaded, Saved}
	if !reflect.DeepEqual(clk.notes, wantNotes) {
		t.Errorf("milestones %v, want %v", clk.notes, wantNotes)
	}
}
