// Package campaign closes the planner-to-fleet loop: a delivery campaign is
// planned by internal/planner, every route is flown end-to-end on its
// assigned physical drone via core.ExecuteRoute (takeoff, per-stop virtual
// drone dwells with allotment metering, RTL, VDR checkpointing), and an
// invariant checker ties each route's planned energy budget to the energy
// the flight actually debited from the simulated battery. When a drone
// faults mid-route, the unflown remainder — the truncated route's tail plus
// every later route assigned to the lost drone — is re-planned onto the
// surviving fleet through planner.PlanStops, with partially-complete
// virtual drones restored from the VDR on their new carrier (the paper's
// migration path).
package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"

	"androne/internal/android"
	"androne/internal/core"
	"androne/internal/geo"
	"androne/internal/planner"
	"androne/internal/sdk"
)

// Delivery is one order in a campaign: a set of waypoints and the per-stop
// operating time. Planner tasks and virtual drone definitions are both
// derived from it, so the planned dwell budget and the flown dwell agree by
// construction.
type Delivery struct {
	Name      string
	Waypoints []geo.Waypoint
	DwellS    float64 // operating time per waypoint
}

// Fault injects a mid-campaign drone loss: the flight at queue position
// Route is aborted after AfterStops stops (the drone returns to base, its
// virtual drones checkpoint to the VDR, and it is pulled from service).
type Fault struct {
	Route      int
	AfterStops int
}

// Config parameterizes a campaign run.
type Config struct {
	// Planner configures the flight planner; FleetSize is also the number
	// of physical drones booted.
	Planner    planner.Config
	Deliveries []Delivery
	// Seed derives per-drone simulation seeds ("<Seed>/pd-%02d").
	Seed string
	// ToleranceFrac bounds |actual - planned| flight energy per completed
	// route, as a fraction of planned (0 = default 0.35; the slack absorbs
	// what the cruise-leg plan does not model: takeoff and landing climbs,
	// acceleration, and dwell-position corrections).
	ToleranceFrac float64
	// Fault, when set, injects a drone loss and exercises re-planning.
	Fault *Fault
	// Sabotage feeds the planner a broken energy model (lossless
	// powertrain, no parasitics, optimistic dwell budgets). The flights
	// still burn real energy, so the planned-vs-debited checker must trip
	// — the campaign's own negative control.
	Sabotage bool
}

// FlightReport is one flown route's outcome.
type FlightReport struct {
	Drone         int     `json:"drone"`
	Stops         int     `json:"stops"`
	PlannedJ      float64 `json:"planned-j"`
	ActualJ       float64 `json:"actual-j"`
	DeviationFrac float64 `json:"deviation-frac"`
	Aborted       bool    `json:"aborted,omitempty"`
	Replanned     bool    `json:"replanned,omitempty"`
}

// Result summarizes the campaign.
type Result struct {
	Flights          []FlightReport `json:"flights"`
	Replans          int            `json:"replans"`
	WaypointsPlanned int            `json:"waypoints-planned"`
	WaypointsVisited int            `json:"waypoints-visited"`
	MaxDeviationFrac float64        `json:"max-deviation-frac"`
}

// ErrEnergyCheck reports a route whose debited energy strayed outside the
// tolerance band around its planned budget.
var ErrEnergyCheck = errors.New("campaign: planned-vs-debited energy check failed")

const dwellAppPkg = "campaign.dwell"

// maxResidentVDs is how many virtual drones fit on one physical drone under
// the container store's memory admission (3 x 185 MB VDs alongside the
// platform's own containers within the 780 MB budget).
const maxResidentVDs = 3

// dwellApp operates at each waypoint for a configured time, then signals
// completion; it is the campaign's stand-in for a tenant app.
type dwellApp struct {
	ctx     *core.AppContext
	dwellS  float64
	active  bool
	elapsed float64
	done    bool
}

func newDwellFactory() core.AppFactory {
	return func(ctx *core.AppContext) android.Lifecycle {
		a := &dwellApp{ctx: ctx, dwellS: 10}
		var args struct {
			DwellS float64 `json:"dwell-s"`
		}
		if err := json.Unmarshal(ctx.Args, &args); err == nil && args.DwellS > 0 {
			a.dwellS = args.DwellS
		}
		ctx.SDK.RegisterWaypointListener(sdk.ListenerFuncs{
			Active:   func(geo.Waypoint) { a.active, a.elapsed, a.done = true, 0, false },
			Inactive: func(geo.Waypoint) { a.active = false },
		})
		return a
	}
}

func (a *dwellApp) OnCreate(*android.App, []byte)           {}
func (a *dwellApp) OnSaveInstanceState(*android.App) []byte { return nil }
func (a *dwellApp) OnDestroy(*android.App)                  {}

func (a *dwellApp) Tick(dt float64) {
	if !a.active || a.done {
		return
	}
	a.elapsed += dt
	if a.elapsed >= a.dwellS {
		a.done = true
		a.ctx.SDK.WaypointCompleted()
	}
}

// tasksAndDefs derives the planner tasks and virtual drone definitions from
// the deliveries. The planner task carries the expected dwell energy (the
// hover estimate for the requested operating time); the definition's
// allotment gets headroom on top so metering never truncates a dwell the
// plan paid for.
func (cfg *Config) tasksAndDefs() ([]planner.Task, map[string]*core.Definition) {
	model := cfg.Planner.Model
	tasks := make([]planner.Task, 0, len(cfg.Deliveries))
	defs := make(map[string]*core.Definition, len(cfg.Deliveries))
	for _, d := range cfg.Deliveries {
		totalDwellS := d.DwellS * float64(len(d.Waypoints))
		dwellJ := model.HoverEnergyJ(totalDwellS, 0)
		tasks = append(tasks, planner.Task{
			ID: d.Name, Waypoints: d.Waypoints,
			EnergyJ: dwellJ, DurationS: totalDwellS,
		})
		defs[d.Name] = &core.Definition{
			Name: d.Name, Owner: d.Name + "-owner",
			Waypoints:       d.Waypoints,
			MaxDuration:     totalDwellS + 30,
			EnergyAllotted:  dwellJ * 1.25,
			WaypointDevices: []string{"camera", "flight-control"},
			Apps:            []string{dwellAppPkg},
			AppArgs: map[string]json.RawMessage{
				dwellAppPkg: json.RawMessage(fmt.Sprintf(`{"dwell-s": %g}`, d.DwellS)),
			},
		}
	}
	return tasks, defs
}

// Run plans and flies the campaign.
func (cfg Config) Run() (*Result, error) { return cfg.run(nil) }

// run is Run with prepare, when non-nil, applied to each physical drone
// once it is built, before it flies.
func (cfg Config) run(prepare func(*core.Drone)) (*Result, error) {
	if cfg.ToleranceFrac <= 0 {
		cfg.ToleranceFrac = 0.35
	}
	if cfg.Seed == "" {
		cfg.Seed = "campaign"
	}
	tasks, defs := cfg.tasksAndDefs()

	pcfg := cfg.Planner
	if pcfg.MaxTasksPerRoute <= 0 || pcfg.MaxTasksPerRoute > maxResidentVDs {
		// Container admission caps how many 185 MB virtual drones fit on a
		// physical drone at once; routes must respect it or VD installation
		// fails before takeoff.
		pcfg.MaxTasksPerRoute = maxResidentVDs
	}
	if cfg.Sabotage {
		// A planner fed a broken model: lossless powertrain, no drag or
		// avionics draw, and dwell budgets a third of the hover estimate.
		pcfg.Model.Eta = 1
		pcfg.Model.ParasiticW = 0
		pcfg.Model.DragN = 0
		for i := range tasks {
			tasks[i].EnergyJ /= 3
		}
	}
	plan, err := pcfg.Plan(tasks)
	if err != nil {
		return nil, err
	}

	env := core.NewCloudEnv()
	fleetSize := pcfg.FleetSize
	drones := make([]*core.Drone, fleetSize)
	alive := make([]bool, fleetSize)
	for i := range alive {
		alive[i] = true
	}
	droneFor := func(i int) (*core.Drone, error) {
		if drones[i] == nil {
			d, err := core.NewDrone(pcfg.Base, fmt.Sprintf("%s/pd-%02d", cfg.Seed, i))
			if err != nil {
				return nil, err
			}
			d.VDC.RegisterAppFactory(dwellAppPkg, newDwellFactory())
			if prepare != nil {
				prepare(d)
			}
			drones[i] = d
		}
		return drones[i], nil
	}

	res := &Result{}
	queue := append([]planner.Route(nil), plan.Routes...)
	for _, r := range queue {
		res.WaypointsPlanned += len(r.Stops)
	}

	faultArmed := cfg.Fault != nil
	for qi := 0; qi < len(queue); qi++ {
		route := queue[qi]
		if len(route.Stops) == 0 {
			continue
		}
		d, err := droneFor(route.Drone)
		if err != nil {
			return res, err
		}
		for _, stop := range route.Stops {
			if err := d.Install(env.VDR, stop.Task, defs[stop.Task]); err != nil {
				return res, fmt.Errorf("campaign: %w", err)
			}
		}

		flown := route
		aborted := false
		if faultArmed && qi == cfg.Fault.Route {
			m := cfg.Fault.AfterStops
			if m > len(route.Stops) {
				m = len(route.Stops)
			}
			flown = planner.Route{Drone: route.Drone, Stops: route.Stops[:m]}
			aborted = true
			faultArmed = false
		}
		report, err := d.ExecuteRoute(flown, env)
		if err != nil {
			return res, fmt.Errorf("campaign: route %d: %w", qi, err)
		}
		fr := FlightReport{
			Drone: route.Drone, Stops: len(flown.Stops),
			ActualJ: report.FlightEnergyJ,
			Aborted: aborted, Replanned: qi >= len(plan.Routes),
		}
		res.WaypointsVisited += len(flown.Stops)

		if aborted {
			// The drone is lost to the campaign; gather everything it left
			// unflown and re-plan it onto the surviving fleet.
			alive[route.Drone] = false
			rest := append([]planner.Stop(nil), route.Stops[len(flown.Stops):]...)
			for j := qi + 1; j < len(queue); j++ {
				if queue[j].Drone == route.Drone {
					rest = append(rest, queue[j].Stops...)
					queue[j].Stops = nil
				}
			}
			var aliveIdx []int
			for i, ok := range alive {
				if ok {
					aliveIdx = append(aliveIdx, i)
				}
			}
			if len(rest) > 0 {
				if len(aliveIdx) == 0 {
					return res, fmt.Errorf("campaign: no surviving drones for %d unflown stops", len(rest))
				}
				rcfg := pcfg
				rcfg.FleetSize = len(aliveIdx)
				rcfg.Seed = pcfg.Seed + "/replan"
				rplan, err := rcfg.PlanStops(rest, nil)
				if err != nil {
					return res, fmt.Errorf("campaign: re-planning remainder: %w", err)
				}
				res.Replans++
				for _, nr := range rplan.Routes {
					nr.Drone = aliveIdx[nr.Drone%len(aliveIdx)]
					queue = append(queue, nr)
				}
			}
		} else {
			fr.PlannedJ = route.EnergyJ
			dev := fr.ActualJ - fr.PlannedJ
			if dev < 0 {
				dev = -dev
			}
			fr.DeviationFrac = dev / fr.PlannedJ
			if fr.DeviationFrac > res.MaxDeviationFrac {
				res.MaxDeviationFrac = fr.DeviationFrac
			}
		}
		res.Flights = append(res.Flights, fr)
	}

	if res.WaypointsVisited != res.WaypointsPlanned {
		return res, fmt.Errorf("campaign: flew %d of %d planned waypoints",
			res.WaypointsVisited, res.WaypointsPlanned)
	}
	if res.MaxDeviationFrac > cfg.ToleranceFrac {
		return res, fmt.Errorf("%w: worst route off by %.0f%% of planned (tolerance %.0f%%)",
			ErrEnergyCheck, res.MaxDeviationFrac*100, cfg.ToleranceFrac*100)
	}
	return res, nil
}

// RingDeliveries builds a deterministic n-delivery campaign spread around
// the base: radii 150-450 m, one or two waypoints each, dwells of 15-35 s.
func RingDeliveries(n int, seed string, base geo.Position) []Delivery {
	r := newRNG(seed)
	out := make([]Delivery, 0, n)
	for i := 0; i < n; i++ {
		nw := 1
		if r.uniform() < 0.4 {
			nw = 2
		}
		wps := make([]geo.Waypoint, nw)
		for j := range wps {
			ang := r.uniform() * 2 * math.Pi
			rad := 150 + r.uniform()*300
			wps[j] = geo.Waypoint{
				Position: geo.Position{
					LatLon: geo.OffsetNE(base.LatLon, rad*math.Cos(ang), rad*math.Sin(ang)),
					Alt:    15,
				},
				MaxRadius: 40,
			}
		}
		out = append(out, Delivery{
			Name:      fmt.Sprintf("order-%02d", i),
			Waypoints: wps,
			DwellS:    15 + r.uniform()*20,
		})
	}
	return out
}

// rng is a tiny deterministic generator (xorshift over an FNV-1a seed) so
// campaign instances are reproducible from their seed string.
type rng struct{ state uint64 }

func newRNG(seed string) *rng {
	h := fnv.New64a()
	h.Write([]byte(seed))
	s := h.Sum64()
	if s == 0 {
		s = 0x9E3779B97F4A7C15
	}
	return &rng{state: s}
}

func (r *rng) next() uint64 {
	r.state ^= r.state << 13
	r.state ^= r.state >> 7
	r.state ^= r.state << 17
	return r.state
}

func (r *rng) uniform() float64 { return (float64(r.next()>>11) + 0.5) / (1 << 53) }
