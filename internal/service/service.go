// Package service assembles the complete AnDrone drone-as-a-service system:
// the cloud portal takes virtual drone orders over HTTP, the flight planner
// allocates them to physical drone flights, the fleet flies the routes with
// the onboard virtualization stack, flight files land in each user's cloud
// storage, virtual drones are saved to the VDR, and orders are billed by
// energy — the whole Figure 4 workflow behind one type.
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"androne/internal/apps"
	"androne/internal/cloud"
	"androne/internal/core"
	"androne/internal/energy"
	"androne/internal/geo"
	"androne/internal/planner"
	"androne/internal/sdk"
	"androne/internal/telemetry"
)

// Errors.
var (
	ErrNothingToFly = errors.New("service: no scheduled orders")
)

// Config parameterizes the service.
type Config struct {
	// Base is the fleet's launch site.
	Base geo.Position
	// FleetSize is the number of physical drones.
	FleetSize int
	// Rates price energy, storage, and network usage.
	Rates energy.Rates
	// Seed makes the simulated fleet deterministic.
	Seed string
	// Quotas bounds each tenant's orders, storage bytes, and VDR layers;
	// the zero value takes cloud.DefaultQuotas.
	Quotas cloud.Quotas
	// Admission tunes the portal front door (token buckets, bounded
	// queue); zero-value fields take the cloud defaults.
	Admission cloud.AdmissionConfig
	// Blobs optionally shares a content-addressed blob store with other
	// service instances, so checkpoint layers dedup across them. Nil means
	// a private store.
	Blobs *cloud.BlobStore
}

// DefaultConfig returns a single-drone service at the paper's test site.
func DefaultConfig() Config {
	return Config{
		Base:      geo.Position{LatLon: geo.LatLon{Lat: 43.6084298, Lon: -85.8110359}, Alt: 0},
		FleetSize: 1,
		Rates:     energy.DefaultRates(),
		Seed:      "androne-service",
	}
}

// Service is the running AnDrone service.
type Service struct {
	cfg     Config
	portal  *cloud.Portal
	apps    *cloud.AppStore
	files   *cloud.Storage
	vdr     *cloud.VDR
	orders  *cloud.Orders
	handler http.Handler
	// flyCh hands flight requests to the fly worker goroutine. The HTTP
	// fly handler only performs channel sends/receives: flight-critical
	// locks (binder, flight controller) are acquired on the worker, never
	// on a tenant-reachable call path — the lockorder critical-path rule
	// convicts the inline alternative.
	flyCh chan chan flyResult

	mu    sync.Mutex
	fleet []*core.Drone
	bills map[string]energy.Bill // order id -> bill
}

type flyResult struct {
	reports []*core.FlightReport
	err     error
}

// flyLoop is the fly worker: it serializes flight execution (the simulated
// fleet is single-threaded anyway) and keeps it off HTTP handler stacks.
func (s *Service) flyLoop() {
	for resp := range s.flyCh {
		reports, err := s.Run()
		resp <- flyResult{reports: reports, err: err}
	}
}

// New boots the service: cloud components, portal, and the physical fleet.
func New(cfg Config) (*Service, error) {
	if cfg.FleetSize <= 0 {
		cfg.FleetSize = 1
	}
	if cfg.Quotas == (cloud.Quotas{}) {
		cfg.Quotas = cloud.DefaultQuotas()
	}
	blobs := cfg.Blobs
	if blobs == nil {
		blobs = cloud.NewBlobStore()
	}
	s := &Service{
		cfg:    cfg,
		apps:   cloud.NewAppStore(),
		files:  cloud.NewStorageWith(cfg.Quotas),
		vdr:    cloud.NewVDRWith(blobs, cfg.Quotas),
		orders: cloud.NewOrdersWith(cfg.Quotas),
		bills:  make(map[string]energy.Bill),
	}
	pcfg := planner.DefaultConfig(cfg.Base)
	estimate := func(def []byte) (float64, float64, float64, error) {
		d, err := core.ParseDefinition(def)
		if err != nil {
			return 0, 0, 0, err
		}
		bill := cfg.Rates.Compute(energy.Usage{EnergyJ: d.EnergyAllotted})
		plan, err := pcfg.Plan([]planner.Task{taskFor("estimate", d)})
		if err != nil {
			return bill.EnergyCharge, 0, 0, nil
		}
		ws, we, err := plan.OperatingWindow(pcfg, "estimate")
		if err != nil {
			return bill.EnergyCharge, 0, 0, nil
		}
		return bill.EnergyCharge, ws, we, nil
	}
	s.portal = cloud.NewPortal(s.apps, s.files, s.vdr, s.orders,
		core.ValidateDefinitionJSON, estimate)

	for i := 0; i < cfg.FleetSize; i++ {
		d, err := core.NewDrone(cfg.Base, fmt.Sprintf("%s/drone-%d", cfg.Seed, i))
		if err != nil {
			return nil, err
		}
		apps.RegisterAll(d.VDC)
		s.fleet = append(s.fleet, d)
	}
	s.flyCh = make(chan chan flyResult)
	go s.flyLoop()
	s.handler = s.assembleHandler()
	return s, nil
}

// Close stops the fly worker. The HTTP fly endpoint must not be used after
// Close; the rest of the service keeps working.
func (s *Service) Close() { close(s.flyCh) }

// assembleHandler builds the service's full HTTP surface: one route table
// over the portal API and the operator endpoints, behind admission
// control, and /metrics and /debug/trace outside it — the ops plane must
// answer precisely when the service is shedding.
func (s *Service) assembleHandler() http.Handler {
	return cloud.NewRoutes(cloud.NewAdmission(s.cfg.Admission), s.routes()...)
}

// routes is the service's route table: the portal's rows, the operator
// rows and the ops rows.
func (s *Service) routes() []cloud.Route {
	notFound := func(w http.ResponseWriter, r *http.Request, _ cloud.PathValues) { http.NotFound(w, r) }
	return append(s.portal.Routes(),
		cloud.Route{Method: "POST", Pattern: "/api/admin/fly", Endpoint: "other", Serve: s.handleFly},
		cloud.Route{Method: "GET", Pattern: "/api/admin/bills", Endpoint: "other", Serve: s.handleBills},
		// Other methods on the operator paths answer 404, not 405: they
		// were the portal's to refuse before the portal's routes and the
		// operator's shared a table, and the portal knows no such path.
		cloud.Route{Pattern: "/api/admin/fly", Endpoint: "other", Serve: notFound},
		cloud.Route{Pattern: "/api/admin/bills", Endpoint: "other", Serve: notFound},
		cloud.Route{Method: "GET", Pattern: "/metrics", Serve: handleMetrics},
		cloud.Route{Method: "GET", Pattern: "/debug/trace", Serve: s.handleTrace},
	)
}

// handleMetrics renders the telemetry registry (GET /metrics).
func handleMetrics(w http.ResponseWriter, r *http.Request, _ cloud.PathValues) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, telemetry.DefaultRegistry.Exposition())
}

// handleFly plans and flies all pending orders (POST /api/admin/fly). The
// flight itself runs on the fly worker; this handler just waits for it.
func (s *Service) handleFly(w http.ResponseWriter, r *http.Request, _ cloud.PathValues) {
	resp := make(chan flyResult, 1)
	s.flyCh <- resp
	res := <-resp
	reports, err := res.reports, res.err
	if errors.Is(err, ErrNothingToFly) {
		cloud.WriteJSON(w, http.StatusOK, map[string]any{"flights": 0})
		return
	}
	if err != nil {
		cloud.WriteJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
		return
	}
	type flightSummary struct {
		DurationS float64 `json:"duration-s"`
		EnergyJ   float64 `json:"energy-j"`
		Home      bool    `json:"returned-home"`
		AEDPass   bool    `json:"aed-pass"`
	}
	out := make([]flightSummary, 0, len(reports))
	for _, rep := range reports {
		out = append(out, flightSummary{
			DurationS: rep.DurationS, EnergyJ: rep.FlightEnergyJ,
			Home: rep.ReturnedHome, AEDPass: rep.AED.Pass,
		})
	}
	cloud.WriteJSON(w, http.StatusOK, map[string]any{"flights": len(out), "reports": out})
}

// handleBills lists settled bills by order id (GET /api/admin/bills).
// Orders are never deleted, so every settled bill belongs to a listed order.
func (s *Service) handleBills(w http.ResponseWriter, r *http.Request, _ cloud.PathValues) {
	s.mu.Lock()
	bills := make(map[string]map[string]float64, len(s.bills))
	for id, b := range s.bills {
		bills[id] = map[string]float64{
			"energy": b.EnergyCharge, "storage": b.StorageCharge,
			"network": b.NetworkCharge, "total": b.Total(),
		}
	}
	s.mu.Unlock()
	cloud.WriteJSON(w, http.StatusOK, bills)
}

// handleTrace dumps recent trace events per fleet drone (GET /debug/trace);
// filter with ?drone=<virtual drone name>.
func (s *Service) handleTrace(w http.ResponseWriter, r *http.Request, _ cloud.PathValues) {
	droneName := r.URL.Query().Get("drone")
	key := telemetry.Key(0)
	if droneName != "" {
		// Lookup, not K: query strings must not grow the intern table.
		k, ok := telemetry.Lookup(droneName)
		if !ok {
			cloud.WriteJSON(w, http.StatusNotFound,
				map[string]string{"error": "unknown drone: " + droneName})
			return
		}
		key = k
	}
	type fleetTrace struct {
		Fleet  int                     `json:"fleet"`
		Events []telemetry.RecordEvent `json:"events"`
	}
	out := make([]fleetTrace, 0, len(s.fleet))
	for i, d := range s.fleet {
		out = append(out, fleetTrace{
			Fleet:  i,
			Events: telemetry.DecodeEvents(d.Tel.Snapshot(key)),
		})
	}
	cloud.WriteJSON(w, http.StatusOK, out)
}

// Handler returns the service's HTTP surface: the portal API and operator
// endpoints behind admission control, plus /metrics and /debug/trace.
func (s *Service) Handler() http.Handler { return s.handler }

// SeedDemoApps publishes the reference apps so the store is browsable out
// of the box.
func (s *Service) SeedDemoApps() error {
	entries := []struct {
		pkg, desc, manifest string
	}{
		{apps.SurveyPackage, "autonomous aerial survey with lawnmower sweeps", `
<androne-manifest package="com.androne.survey">
  <uses-permission name="camera" type="waypoint"/>
  <uses-permission name="flight-control" type="waypoint"/>
  <argument name="survey-areas" type="polygon-list" required="true"/>
  <argument name="spacing-m" type="number" required="false"/>
  <argument name="use-mission" type="bool" required="false"/>
</androne-manifest>`},
		{apps.PhotoPackage, "aerial snapshots at a waypoint", `
<androne-manifest package="com.androne.photo">
  <uses-permission name="camera" type="waypoint"/>
  <argument name="shots" type="number" required="false"/>
</androne-manifest>`},
		{apps.TrafficWatchPackage, "continuous traffic filming between waypoints", `
<androne-manifest package="com.androne.trafficwatch">
  <uses-permission name="camera" type="continuous"/>
  <uses-permission name="gps" type="continuous"/>
</androne-manifest>`},
		{apps.RemoteControlPackage, "interactive drone control from a smartphone", `
<androne-manifest package="com.androne.remotecontrol">
  <uses-permission name="camera" type="waypoint"/>
  <uses-permission name="flight-control" type="waypoint"/>
</androne-manifest>`},
	}
	for _, e := range entries {
		m, err := sdk.ParseManifest([]byte(e.manifest))
		if err != nil {
			return err
		}
		if err := s.apps.Publish(cloud.StoreApp{
			Package: e.pkg, Description: e.desc, Manifest: m,
			APK: []byte("apk:" + e.pkg),
		}); err != nil {
			return err
		}
	}
	return nil
}

// AppStore exposes the app store for seeding.
func (s *Service) AppStore() *cloud.AppStore { return s.apps }

// Storage exposes user file storage.
func (s *Service) Storage() *cloud.Storage { return s.files }

// VDR exposes the virtual drone repository.
func (s *Service) VDR() *cloud.VDR { return s.vdr }

// Orders exposes the order book.
func (s *Service) Orders() *cloud.Orders { return s.orders }

// Fleet exposes the physical drones (for tests and tooling).
func (s *Service) Fleet() []*core.Drone { return s.fleet }

// BillFor returns the bill for a completed order.
func (s *Service) BillFor(orderID string) (energy.Bill, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.bills[orderID]
	return b, ok
}

func taskFor(id string, d *core.Definition) planner.Task {
	return planner.Task{
		ID: id, Waypoints: d.Waypoints,
		EnergyJ: d.EnergyAllotted, DurationS: d.MaxDuration,
	}
}

// orderDefinition parses ord's definition from the order book, named
// after the order and owned by its tenant unless the definition names an
// owner.
func orderDefinition(ord cloud.Order) (*core.Definition, error) {
	def, err := core.ParseDefinition(ord.Definition)
	if err != nil {
		return nil, fmt.Errorf("service: order %s: %w", ord.ID, err)
	}
	def.Name = ord.Name
	if def.Owner == "" {
		def.Owner = ord.User
	}
	return def, nil
}

// ProcessOrders moves pending orders to scheduled: it parses their
// definitions, plans routes, and fills in each order's operating window
// and access info. The definitions stay in the order book; FlyScheduled
// parses them again for the orders it flies.
func (s *Service) ProcessOrders() (*planner.Plan, error) {
	pending := s.orders.ListStatus(cloud.OrderPending)
	if len(pending) == 0 {
		return nil, ErrNothingToFly
	}

	pcfg := planner.DefaultConfig(s.cfg.Base)
	pcfg.FleetSize = s.cfg.FleetSize
	// The prototype's memory supports at most three simultaneous virtual
	// drones per flight (§6.3).
	pcfg.MaxTasksPerRoute = 3

	var tasks []planner.Task
	for _, ord := range pending {
		def, err := orderDefinition(ord)
		if err != nil {
			return nil, err
		}
		tasks = append(tasks, taskFor(def.Name, def))
	}

	plan, err := pcfg.Plan(tasks)
	if err != nil {
		return nil, err
	}
	for _, ord := range pending {
		ws, we, werr := plan.OperatingWindow(pcfg, ord.Name)
		_ = s.orders.Update(ord.ID, func(o *cloud.Order) {
			o.Status = cloud.OrderScheduled
			if werr == nil {
				o.WindowStartS, o.WindowEndS = ws, we
			}
			o.Access = cloud.AccessInfo{
				VFCAddr: "vfc://" + o.Name + ":5760",
				SSHAddr: "ssh://" + o.Name + ":22",
				VPNKey:  fmt.Sprintf("vpn-%s", o.ID),
			}
		})
	}
	return plan, nil
}

// FlyScheduled executes the plan across the fleet: each route flies on the
// drone the planner assigned it to, with virtual drones created on that
// drone (or restored from the VDR if they flew before — including on a
// different physical drone, the paper's migration path). Files are
// offloaded, virtual drones saved to the VDR, orders billed by metered
// energy plus storage, and marked completed or saved-for-resume. Flights
// run sequentially (the simulation is single-threaded); the fleet
// constraint shaped the routes.
func (s *Service) FlyScheduled(plan *planner.Plan) ([]*core.FlightReport, error) {
	if plan == nil || len(plan.Routes) == 0 {
		return nil, ErrNothingToFly
	}
	env := &core.CloudEnv{Storage: s.files, VDR: s.vdr}
	defs, flown, err := s.flightDefinitions(plan)
	if err != nil {
		return nil, err
	}

	var reports []*core.FlightReport
	for i, route := range plan.Routes {
		drone := s.fleet[route.Drone%len(s.fleet)]
		for _, stop := range route.Stops {
			if err := drone.Install(s.vdr, stop.Task, defs[stop.Task]); err != nil {
				return reports, fmt.Errorf("service: route %d: %w", i, err)
			}
		}
		report, err := drone.ExecuteRoute(route, env)
		if err != nil {
			return reports, fmt.Errorf("service: route %d: %w", i, err)
		}
		reports = append(reports, report)
	}

	// Settle orders: completion status and bills.
	byName := make(map[string]*core.VDReport)
	for _, rep := range reports {
		for name, vr := range rep.PerDrone {
			if agg, ok := byName[name]; ok {
				agg.WaypointsVisited += vr.WaypointsVisited
				agg.EnergyUsedJ += vr.EnergyUsedJ
				agg.TimeUsedS += vr.TimeUsedS
				agg.Files = append(agg.Files, vr.Files...)
				agg.Completed = vr.Completed
			} else {
				cp := *vr
				byName[name] = &cp
			}
		}
	}
	for name, ord := range flown {
		vr, ok := byName[name]
		if !ok {
			continue
		}
		status := cloud.OrderSaved
		if vr.Completed {
			status = cloud.OrderCompleted
		}
		bill := s.cfg.Rates.Compute(energy.Usage{
			EnergyJ:       vr.EnergyUsedJ,
			StorageBytes:  s.files.UsageBytes(ord.User),
			StorageMonths: 1,
		})
		s.mu.Lock()
		s.bills[ord.ID] = bill
		s.mu.Unlock()
		_ = s.orders.Update(ord.ID, func(o *cloud.Order) { o.Status = status })
	}
	return reports, nil
}

// flightDefinitions marks the scheduled orders that plan's stops name as
// flying and chooses, for each name a stop flies, the one order that
// flight settles (flown) and its parsed definition (defs). A name that
// no scheduled order holds, such as the later leg of a saved order, takes
// the last planned order of that name; pending orders were never planned.
func (s *Service) flightDefinitions(plan *planner.Plan) (defs map[string]*core.Definition, flown map[string]cloud.Order, err error) {
	named := make(map[string]bool)
	for _, route := range plan.Routes {
		for _, stop := range route.Stops {
			named[stop.Task] = true
		}
	}
	flown = make(map[string]cloud.Order)
	for _, ord := range s.orders.List("") {
		switch {
		case !named[ord.Name] || ord.Status == cloud.OrderPending:
		case ord.Status == cloud.OrderScheduled:
			_ = s.orders.Update(ord.ID, func(o *cloud.Order) { o.Status = cloud.OrderFlying })
			flown[ord.Name] = ord
		case flown[ord.Name].Status != cloud.OrderScheduled:
			flown[ord.Name] = ord
		}
	}
	defs = make(map[string]*core.Definition, len(flown))
	for name, ord := range flown {
		def, err := orderDefinition(ord)
		if err != nil {
			return nil, nil, err
		}
		defs[name] = def
	}
	return defs, flown, nil
}

// Run is the whole service loop once: process pending orders and fly them.
func (s *Service) Run() ([]*core.FlightReport, error) {
	plan, err := s.ProcessOrders()
	if err != nil {
		return nil, err
	}
	return s.FlyScheduled(plan)
}

// OrderJSON is a convenience for tests and tools: place an order directly.
func (s *Service) OrderJSON(user, name string, def *core.Definition) (*cloud.Order, error) {
	raw, err := def.Encode()
	if err != nil {
		return nil, err
	}
	if err := core.ValidateDefinitionJSON(raw); err != nil {
		return nil, err
	}
	return s.orders.Create(user, cloud.SanitizeName(name), json.RawMessage(raw))
}
